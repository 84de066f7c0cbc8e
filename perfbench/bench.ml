(* The repository benchmark: one workload, one seed, one measuring window.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   The seed generates [sets] input sets before any clock starts, [sets]
   being the window divided by the workload's [set_seconds] (at least
   three). Each set runs once as an iteration: build, load, submit, run to
   settlement, correctness gate. Simulated-clock metrics pool every set, so
   they repeat exactly for one seed and window; wall-clock metrics are
   medians over iterations. With [--trace 1] odd iterations run under the
   SIGPROF layer sampler and the report is the per-layer view; the even
   ones give the tracing overhead. The last line of standard output is the
   JSON result. *)

open Perfbench

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

type args = { workload : Workloads.t; seed : int; seconds : float; trace : bool }

let parse argv =
  let rec go acc = function
    | [] -> acc
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--"
      ->
        go ((flag, value) :: acc) rest
    | other :: _ -> fail "unexpected argument %S" other
  in
  let pairs = go [] (List.tl (Array.to_list argv)) in
  let get flag =
    match List.assoc_opt flag pairs with
    | Some v -> v
    | None -> fail "missing %s" flag
  in
  let int flag =
    match int_of_string_opt (get flag) with
    | Some v -> v
    | None -> fail "%s wants an integer" flag
  in
  let workload =
    let name = get "--workload" in
    match Workloads.find name with
    | Some w -> w
    | None ->
        fail "unknown workload %S (one of: %s)" name
          (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all))
  in
  let seconds = int "--seconds" in
  if seconds < 1 then fail "--seconds must be positive";
  let trace =
    match get "--trace" with
    | "0" -> false
    | "1" -> true
    | other -> fail "--trace wants 0 or 1, got %S" other
  in
  { workload; seed = int "--seed"; seconds = float_of_int seconds; trace }

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sets args =
  max 3 (int_of_float (args.seconds /. args.workload.Workloads.set_seconds))

(* Set-up is a fraction of a second on two workloads, where host noise
   swamps a single measurement: after the first iteration, set-up of the
   first set is repeated on its own (the cluster is built and dropped
   without running) within 5% of the window, so [setup_s] is a median of
   many. *)
let setup_share = 0.05
let max_lone_setups = 30

type measured = {
  setups : Measure.setup list;
  iterations : Measure.iteration list;
  peak_heap_words : int;  (** [top_heap_words] after the first iteration. *)
}

let measure args (inputs : Workloads.input array array) =
  let started = Unix.gettimeofday () in
  let spent () = Unix.gettimeofday () -. started in
  let iteration i =
    Gc.compact ();
    let profile = args.trace && i mod 2 = 1 in
    let it = Measure.iteration args.workload Workloads.Full inputs.(i) ~profile in
    Printf.printf
      "set %d%s: wall setup %.3f s (build %.3f, load %.3f, submit %.3f, speed \
       %.3f), run %.3f s (speed %.3f), %d/%d committed, digest %s\n%!"
      (i + 1)
      (if profile then " (traced)" else "")
      (it.setup.build_s +. it.setup.load_s +. it.setup.submit_s)
      it.setup.build_s it.setup.load_s it.setup.submit_s it.setup.speed it.run_s
      it.speed it.sim.committed it.sim.submitted (Measure.digest it.sim);
    it
  in
  let first = iteration 0 in
  let peak_heap_words = (Gc.quick_stat ()).top_heap_words in
  let setup_deadline = spent () +. (setup_share *. args.seconds) in
  let rec lone_setups n acc =
    if n >= max_lone_setups || spent () > setup_deadline then List.rev acc
    else begin
      Gc.compact ();
      let _, setup = Measure.set_up args.workload Workloads.Full inputs.(0) in
      lone_setups (n + 1) (setup :: acc)
    end
  in
  let lone = lone_setups 0 [] in
  Printf.printf "%d set-ups of set 1 alone: median %.4f s\n%!" (List.length lone)
    (median (List.map Measure.setup_s lone));
  let iterations = first :: List.init (Array.length inputs - 1) (fun i -> iteration (i + 1)) in
  {
    setups = lone @ List.map (fun (it : Measure.iteration) -> it.setup) iterations;
    iterations;
    peak_heap_words;
  }

type metric = { name : string; value : float; unit_ : string; note : string }

let metric name value unit_ note = { name; value; unit_; note }

let quotient num den = if den = 0.0 then 0.0 else num /. den

let untraced its =
  List.filter (fun (it : Measure.iteration) -> it.layer_samples = None) its

let pooled its = Measure.pool (List.map (fun (it : Measure.iteration) -> it.sim) its)

(* Host seconds of [Cluster.run], scaled to the reference speed, per
   committed transaction or per event: median over iterations. *)
let run_per f its =
  median
    (List.map (fun (it : Measure.iteration) -> it.run_s *. it.speed /. f it.sim) its)

let committed (s : Measure.sim) = float_of_int s.committed
let events (s : Measure.sim) = float_of_int s.events

let end_to_end counts { setups; iterations = its; peak_heap_words } =
  let c name = List.assoc name counts in
  let untraced = untraced its in
  let nu = List.length untraced in
  let sum f = List.fold_left (fun acc it -> acc +. f it) 0.0 untraced in
  [
    metric "setup_s"
      (median (List.map Measure.setup_s setups))
      "s"
      (Printf.sprintf
         "median of %d set-ups, Cluster.create to last Tcp.submit, at the reference \
          speed"
         (List.length setups));
    metric "host_us_per_commit"
      (run_per committed untraced *. 1e6)
      "us"
      (Printf.sprintf
         "median over %d sets of Cluster.run wall at the reference speed / committed" nu);
    metric "ns_per_event"
      (run_per events untraced *. 1e9)
      "ns"
      (Printf.sprintf
         "median over %d sets of Cluster.run wall at the reference speed / events" nu);
    metric "minor_words_per_commit"
      (sum (fun it -> it.minor_words) /. sum (fun it -> committed it.sim))
      "words/commit"
      (Printf.sprintf "Gc.quick_stat minor words over Cluster.run / committed, %d sets"
         nu);
    metric "peak_heap_mb"
      (float_of_int (peak_heap_words * (Sys.word_size / 8)) /. 1e6)
      "MB" "Gc top_heap_words of the whole process after the first set";
    metric "sim_tps"
      (c "committed" /. c "sim.elapsed_s")
      "tx/s"
      (Printf.sprintf
         "%.0f committed / %.3f simulated s, first submit to settlement, summed \
          over %d sets"
         (c "committed") (c "sim.elapsed_s") (List.length its));
    metric "sim_mean_ms" (c "latency.mean_ms") "ms"
      (Printf.sprintf "encompass.tx_latency_ms mean, n=%.0f (p50 %.3f ms)"
         (c "latency.samples") (c "latency.p50_ms"));
    metric "sim_p99_ms" (c "latency.p99_ms") "ms"
      (Printf.sprintf "encompass.tx_latency_ms p99, n=%.0f" (c "latency.samples"));
    metric "commit_frac"
      (c "committed" /. c "submitted")
      "ratio"
      (Printf.sprintf "%.0f committed / %.0f submitted (%.0f failed, %.0f program aborts)"
         (c "committed") (c "submitted") (c "failed") (c "program_aborts"));
  ]

let per_layer counts { setups; iterations = its; _ } =
  let c name = List.assoc name counts in
  let traced, untraced =
    List.partition (fun (it : Measure.iteration) -> it.layer_samples <> None) its
  in
  let ratio ?(unit_ = "ratio") name num den =
    metric name
      (quotient (c num) (c den))
      unit_
      (Printf.sprintf "%.0f %s / %.0f %s" (c num) num (c den) den)
  in
  let per_commit name counter unit_ = ratio ~unit_ name counter "committed" in
  let count name = metric name (c name) "count" "simulated-run count" in
  let med f its = median (List.map f its) in
  let span name f =
    metric name
      (median (List.map (fun (s : Measure.setup) -> f s *. s.speed) setups))
      "s"
      (Printf.sprintf "median over %d set-ups, at the reference speed"
         (List.length setups))
  in
  let samples =
    let total = Array.make (Array.length Sampler.layers) 0 in
    List.iter
      (fun (it : Measure.iteration) ->
        Option.iter (Array.iteri (fun i n -> total.(i) <- total.(i) + n)) it.layer_samples)
      traced;
    total
  in
  let sample_total = Array.fold_left ( + ) 0 samples in
  let traced_s_per_commit = run_per committed traced in
  let untraced_s_per_commit = run_per committed untraced in
  let cancelled = c "sim.events_cancelled" and executed = c "sim.events_executed" in
  let hits = c "disk.cache_hits" and misses = c "disk.cache_misses" in
  [
    per_commit "sim.events_per_commit" "sim.events_executed" "events/commit";
    metric "sim.cancelled_ratio"
      (quotient cancelled (executed +. cancelled))
      "ratio"
      (Printf.sprintf "%.0f cancelled / (%.0f executed + cancelled)" cancelled executed);
    metric "os.cpu_util_max" (c "os.cpu_util_max") "ratio"
      "busiest processor's Cpu.total_busy / simulated elapsed";
    metric "os.cpu_util_mean" (c "os.cpu_util_mean") "ratio"
      "mean Cpu.total_busy / simulated elapsed over all processors";
    per_commit "net.msgs_per_commit" "net.msgs_sent" "msgs/commit";
    ratio ~unit_:"msgs/boxcar" "net.msgs_per_boxcar" "net.msgs_sent" "net.boxcars";
    per_commit "rpc.calls_per_commit" "rpc.calls" "calls/commit";
    per_commit "os.checkpoints_per_commit" "os.checkpoints" "ckpts/commit";
    count "net.retransmits";
    per_commit "disk.reads_per_commit" "disk.reads" "ios/commit";
    per_commit "disk.writes_per_commit" "disk.writes" "ios/commit";
    per_commit "disk.forced_writes_per_commit" "disk.forced_writes" "ios/commit";
    metric "disk.cache_hit_ratio"
      (quotient hits (hits +. misses))
      "ratio"
      (Printf.sprintf "%.0f hits / (%.0f hits + %.0f misses)" hits hits misses);
    metric "disk.force_batch_size" (c "disk.force_batch_size") "writes/batch"
      "mean of the disk.force_batch_size sample";
    span "setup.load_s" (fun s -> s.Measure.load_s);
    per_commit "lock.waits_per_commit" "lock.waits" "waits/commit";
    count "lock.timeouts";
    count "lock.grants_after_wait";
    per_commit "audit.forces_per_commit" "audit.forces" "forces/commit";
    count "tmf.images_undone";
    count "tmp.read_only_votes";
    count "tmp.phase2_pruned";
    count "tmp.fast_path_commits";
    ratio "tmf.abort_ratio" "tmf.aborts" "tmf.begins";
    per_commit "tmf.state_broadcast_msgs_per_commit" "tmf.state_broadcast_msgs"
      "msgs/commit";
    per_commit "encompass.restarts_per_commit" "encompass.restarts" "restarts/commit";
    count "dp.coalesced_checkpoints";
    span "setup.build_s" (fun s -> s.Measure.build_s);
    span "setup.submit_s" (fun s -> s.Measure.submit_s);
    metric "gc.minor_collections"
      (med (fun (it : Measure.iteration) -> float_of_int it.minor_collections) untraced)
      "count" "median over untraced Cluster.run calls";
    metric "gc.major_collections"
      (med (fun (it : Measure.iteration) -> float_of_int it.major_collections) untraced)
      "count" "median over untraced Cluster.run calls";
    metric "gc.promoted_words_per_commit"
      (med (fun (it : Measure.iteration) -> it.promoted_words /. committed it.sim) untraced)
      "words/commit" "median over untraced Cluster.run calls of promoted words / committed";
  ]
  @ List.concat
      (Array.to_list
         (Array.mapi
            (fun i layer ->
              let share = float_of_int samples.(i) /. float_of_int sample_total in
              [
                metric ("host.share." ^ layer) share "ratio"
                  (Printf.sprintf "%d of %d SIGPROF samples" samples.(i) sample_total);
                metric ("host.ms_per_commit." ^ layer)
                  (share *. traced_s_per_commit *. 1e3)
                  "ms"
                  (Printf.sprintf "share x median traced run %.1f us / commit"
                     (traced_s_per_commit *. 1e6));
              ])
            Sampler.layers))
  @ [
      metric "host.speed"
        (med (fun (it : Measure.iteration) -> it.speed) its)
        "ratio" "median over sets of the reference burst's nominal / measured time";
      metric "host.raw_us_per_commit"
        (med (fun (it : Measure.iteration) -> it.run_s /. committed it.sim) untraced *. 1e6)
        "us" "median over untraced sets of Cluster.run wall / committed, not scaled";
      metric "host.samples" (float_of_int sample_total) "count"
        (Printf.sprintf "over %d traced sets" (List.length traced));
      metric "trace.overhead_frac"
        ((traced_s_per_commit /. untraced_s_per_commit) -. 1.0)
        "ratio"
        (Printf.sprintf
           "median run us/commit traced %.1f (%d sets) vs untraced %.1f (%d sets)"
           (traced_s_per_commit *. 1e6) (List.length traced)
           (untraced_s_per_commit *. 1e6) (List.length untraced));
    ]

let json_number v = Printf.sprintf "%.17g" v

let result_json ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value)
          m.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " fields)

let () =
  let args = parse Sys.argv in
  let sets = sets args in
  let inputs, generate_s =
    Measure.wall (fun () ->
        let rng = Tandem_sim.Rng.create ~seed:args.seed in
        Array.init sets (fun _ ->
            args.workload.generate Workloads.Full (Tandem_sim.Rng.split rng)))
  in
  Printf.printf
    "workload %s, seed %d: %d input sets of %d inputs generated in %.3f s (not in \
     setup_s)\n%!"
    args.workload.name args.seed sets (Array.length inputs.(0)) generate_s;
  let measured = measure args inputs in
  let its = measured.iterations in
  let sim = pooled its in
  let failed_checks =
    List.concat_map
      (fun (it : Measure.iteration) ->
        List.filter (fun (c : Tandem_chaos.Checker.check) -> not c.passed) it.checks)
      its
  in
  List.iter
    (fun (c : Tandem_chaos.Checker.check) ->
      Printf.printf "%s %s: %s\n" (if c.passed then "PASS" else "FAIL") c.name c.detail)
    (List.hd its).checks;
  List.iteri
    (fun i (it : Measure.iteration) ->
      if i > 0 then
        List.iter
          (fun (c : Tandem_chaos.Checker.check) ->
            if not c.passed then Printf.printf "FAIL set %d %s: %s\n" (i + 1) c.name c.detail)
          it.checks)
    its;
  let counts = Measure.counts sim in
  Printf.printf "simulated counts over %d sets, digest %s:\n" sets (Measure.digest sim);
  List.iter (fun (name, v) -> Printf.printf "  %-28s %.6g\n" name v) counts;
  let metrics =
    if args.trace then per_layer counts measured else end_to_end counts measured
  in
  let non_finite = List.filter (fun m -> not (Float.is_finite m.value)) metrics in
  List.iter
    (fun m -> Printf.printf "%-38s %14.6g %-13s %s\n" m.name m.value m.unit_ m.note)
    metrics;
  List.iter (fun m -> Printf.printf "FAIL %s is not a finite number\n" m.name) non_finite;
  let correct = failed_checks = [] && non_finite = [] in
  let finite = List.filter (fun m -> Float.is_finite m.value) metrics in
  print_endline
    (result_json ~correct ~attempted:sim.submitted
       ~failed:(sim.failed + sim.program_aborts) finite);
  if not correct then exit 1
