(* E14 — node autonomy: the master/suspense replication design versus the
   naive all-copies-in-one-transaction design, under partition.

   While one plant is cut off, global updates are attempted under both
   disciplines. The master scheme commits everything whose master is
   reachable and defers the cut-off copies; the naive scheme cannot commit
   anything that involves the unreachable plant. *)

open Tandem_sim
open Tandem_os
open Tandem_mfg
open Bench_util

let run () =
  heading "E14 — node autonomy: master/suspense vs all-copies transactions";
  claim
    "the naive design fails the autonomy goal: no node can run a global \
     update while any other node is unavailable; the actual design trades \
     momentary replica consistency for autonomy";
  let t = Mfg_app.build ~seed:97 ~items:24 () in
  let cluster = Mfg_app.cluster t in
  let net = Tandem_encompass.Cluster.net cluster in
  Mfg_app.start_monitors t ();
  Net.partition net [ 1; 2; 3 ] [ 4 ];
  (* 12 updates under each discipline, all to items mastered at reachable
     plants, all issued from plant 1. *)
  let items_mastered_reachable =
    List.filter (fun item -> Mfg_app.master_of t ~item <> 4)
      (List.init (Mfg_app.item_count t) Fun.id)
  in
  let chosen = List.filteri (fun i _ -> i < 12) items_mastered_reachable in
  List.iter
    (fun item ->
      Mfg_app.submit_global_update t ~via:1 ~item
        ~description:(Printf.sprintf "master-%d" item))
    chosen;
  let tcp1 = Mfg_app.tcp t 1 in
  Tandem_encompass.Cluster.run
    ~until:(Sim_time.add (Engine.now (Tandem_encompass.Cluster.engine cluster)) (Sim_time.minutes 2))
    cluster;
  let master_committed = Tandem_encompass.Tcp.completed tcp1 in
  let master_failed =
    Tandem_encompass.Tcp.failures tcp1 + Tandem_encompass.Tcp.program_aborts tcp1
  in
  (* Now the same volume of work under the naive discipline. *)
  List.iter
    (fun item ->
      Mfg_app.submit_naive_update t ~via:1 ~item
        ~description:(Printf.sprintf "naive-%d" item))
    chosen;
  Tandem_encompass.Cluster.run
    ~until:(Sim_time.add (Engine.now (Tandem_encompass.Cluster.engine cluster)) (Sim_time.minutes 4))
    cluster;
  let naive_committed = Tandem_encompass.Tcp.completed tcp1 - master_committed in
  let naive_failed =
    Tandem_encompass.Tcp.failures tcp1 + Tandem_encompass.Tcp.program_aborts tcp1
    - master_failed
  in
  print_table
    ~columns:[ "discipline"; "attempted"; "committed"; "failed"; "deferred copies" ]
    [
      [
        "master + suspense";
        "12";
        string_of_int master_committed;
        string_of_int master_failed;
        string_of_int
          (Mfg_app.suspense_backlog t 1 + Mfg_app.suspense_backlog t 2
          + Mfg_app.suspense_backlog t 3);
      ];
      [
        "naive all-copies";
        "12";
        string_of_int naive_committed;
        string_of_int naive_failed;
        "-";
      ];
    ];
  (* Heal and verify convergence of the committed master-scheme updates. *)
  Net.heal_partition net;
  Tandem_encompass.Cluster.run
    ~until:(Sim_time.add (Engine.now (Tandem_encompass.Cluster.engine cluster)) (Sim_time.minutes 2))
    cluster;
  observed
    "after healing, divergent items: %d — the deferred updates of the master \
     scheme all reached the cut-off plant"
    (Mfg_app.divergent_items t)
