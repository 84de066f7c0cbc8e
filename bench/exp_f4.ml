(* F4 — Figure 4: the manufacturing network under partition.

   Global-file updates keep flowing while a plant is cut off; its deferred
   updates accumulate in suspense files and the copies converge after
   reconnection. The table tracks backlog and divergence across the three
   phases. *)

open Tandem_sim
open Tandem_os
open Tandem_mfg
open Bench_util

let snapshot t label =
  let backlog =
    List.fold_left (fun acc (p, _) -> acc + Mfg_app.suspense_backlog t p) 0
      Mfg_app.plant_names
  in
  [
    label;
    string_of_int (Tandem_encompass.Tcp.completed (Mfg_app.tcp t 1)
                   + Tandem_encompass.Tcp.completed (Mfg_app.tcp t 2)
                   + Tandem_encompass.Tcp.completed (Mfg_app.tcp t 3)
                   + Tandem_encompass.Tcp.completed (Mfg_app.tcp t 4));
    string_of_int backlog;
    string_of_int (Mfg_app.divergent_items t);
  ]

let run_phase t rng span =
  let cluster = Mfg_app.cluster t in
  let stop = Sim_time.add (Engine.now (Tandem_encompass.Cluster.engine cluster)) span in
  (* Mixed traffic: mostly local stock movements, some global updates. *)
  let rec traffic () =
    if Sim_time.compare (Engine.now (Tandem_encompass.Cluster.engine cluster)) stop < 0
    then begin
      let plant = 1 + Rng.int rng 3 in
      (* Issued from the majority side so work continues under partition. *)
      if Rng.bernoulli rng ~p:0.3 then begin
        let item = Rng.int rng (Mfg_app.item_count t) in
        if Mfg_app.master_of t ~item <> 4 then
          Mfg_app.submit_global_update t ~via:plant ~item
            ~description:(Printf.sprintf "rev-%d" (Rng.int rng 10_000))
      end
      else
        Mfg_app.submit_stock_update t ~node:plant
          ~item:(Rng.int rng (Mfg_app.item_count t))
          ~quantity:(Rng.int_in_range rng ~lo:(-5) ~hi:5);
      ignore
        (Engine.schedule_after (Tandem_encompass.Cluster.engine cluster)
           (Sim_time.milliseconds 800) traffic)
    end
  in
  traffic ();
  Tandem_encompass.Cluster.run ~until:stop cluster

let run () =
  heading "F4 — the manufacturing network under partition (Figure 4)";
  claim
    "global updates continue despite partition (node autonomy); deferred \
     updates accumulate in suspense files; when the network is re-connected \
     and all accumulated updates are applied, global file copies converge";
  let t = Mfg_app.build ~seed:37 ~items:16 () in
  let net = Tandem_encompass.Cluster.net (Mfg_app.cluster t) in
  let rng = Rng.create ~seed:53 in
  Mfg_app.start_monitors t ();
  let rows = ref [] in
  run_phase t rng (Sim_time.seconds 30);
  rows := snapshot t "connected (30s)" :: !rows;
  Net.partition net [ 1; 2; 3 ] [ 4 ];
  run_phase t rng (Sim_time.seconds 30);
  rows := snapshot t "Neufahrn cut off (30s)" :: !rows;
  Net.heal_partition net;
  (* Measure convergence time after healing. *)
  let engine = Tandem_encompass.Cluster.engine (Mfg_app.cluster t) in
  let healed_at = Engine.now engine in
  let converged_at = ref None in
  let rec poll () =
    if !converged_at = None then begin
      if Mfg_app.divergent_items t = 0 then converged_at := Some (Engine.now engine)
      else ignore (Engine.schedule_after engine (Sim_time.milliseconds 250) poll)
    end
  in
  poll ();
  Tandem_encompass.Cluster.run
    ~until:(Sim_time.add healed_at (Sim_time.minutes 2))
    (Mfg_app.cluster t);
  rows := snapshot t "re-connected (2min)" :: !rows;
  print_table
    ~columns:[ "phase"; "tx completed"; "suspense backlog"; "divergent items" ]
    (List.rev !rows);
  (match !converged_at with
  | Some at ->
      observed "copies converged %s after reconnection"
        (Sim_time.to_string (Sim_time.diff at healed_at))
  | None -> observed "copies did NOT converge within 2 minutes of healing")
