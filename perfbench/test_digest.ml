(* Determinism of the benchmark's simulated side: for every workload, two
   short runs at one seed produce equal digests of every simulated-clock
   metric and count, and a different seed produces a different digest. *)

open Perfbench

let digest (w : Workloads.t) ~seed =
  let inputs = w.generate Workloads.Small (Tandem_sim.Rng.create ~seed) in
  let it = Measure.iteration w Workloads.Small inputs ~profile:false in
  List.iter
    (fun (c : Tandem_chaos.Checker.check) ->
      if not c.passed then
        failwith (Printf.sprintf "%s seed %d: FAIL %s: %s" w.name seed c.name c.detail))
    it.checks;
  Measure.digest it.sim

let () =
  List.iter
    (fun (w : Workloads.t) ->
      let a = digest w ~seed:1 in
      let b = digest w ~seed:1 in
      let c = digest w ~seed:2 in
      if a <> b then failwith (Printf.sprintf "%s: seed 1 digests differ: %s vs %s" w.name a b);
      if a = c then failwith (Printf.sprintf "%s: seeds 1 and 2 give one digest %s" w.name a);
      Printf.printf "%s: seed 1 digest %s twice, seed 2 digest %s\n" w.name a c)
    Workloads.all
