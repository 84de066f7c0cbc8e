(* E10 — ROLLFORWARD: recovery from total node failure.

   "NonStop systems allow optimization of normal processing at the expense
   of restart time." The sweep over the amount of work since the archive
   shows that trade: recovery time grows with the audit trail to replay,
   while correctness is absolute — committed transactions survive,
   uncommitted ones are discarded. *)

open Tandem_sim
open Tandem_encompass
open Bench_util

let measure ~since_archive =
  let bank = make_bank ~seed:73 ~cpus:4 ~terminals:8 ~accounts:300 () in
  (* Some work before the archive. *)
  queue_debit_credit bank ~per_terminal:2;
  Cluster.run bank.cluster;
  let archive = Cluster.take_archive bank.cluster ~node:1 in
  (* The redo workload. *)
  List.iter
    (fun tcp ->
      for i = 0 to since_archive - 1 do
        Tcp.submit tcp ~terminal:(i mod Tcp.terminal_count tcp)
          (Workload.debit_credit_input bank.rng bank.spec ())
      done)
    bank.tcps;
  Cluster.run bank.cluster;
  let committed_before = total_completed bank in
  let funds_before = Workload.total_balance bank.cluster bank.spec in
  let gap =
    Tmf.Rollforward.archive_trail_gap
      (Tmf.rollforward (Cluster.tmf bank.cluster) 1)
      archive
  in
  Cluster.total_node_failure bank.cluster ~node:1;
  let started = Engine.now (Cluster.engine bank.cluster) in
  let stats = Cluster.rollforward_node bank.cluster ~node:1 archive in
  let recovery_time = Sim_time.diff (Engine.now (Cluster.engine bank.cluster)) started in
  let funds_after = Workload.total_balance bank.cluster bank.spec in
  (committed_before, gap, stats, recovery_time, funds_before = funds_after)

let run () =
  heading "E10 — ROLLFORWARD recovery time vs audit trail length";
  claim
    "recovery from total node failure reapplies the after-images of \
     committed transactions from the audit trails to an archived copy; \
     normal processing is optimized at the expense of restart time";
  let rows =
    List.map
      (fun since_archive ->
        let committed, gap, stats, recovery_time, conserved =
          measure ~since_archive
        in
        [
          string_of_int since_archive;
          string_of_int committed;
          string_of_int gap;
          string_of_int stats.Tmf.Rollforward.transactions_redone;
          string_of_int stats.Tmf.Rollforward.images_applied;
          Sim_time.to_string recovery_time;
          (if conserved then "yes" else "NO");
        ])
      [ 5; 20; 50; 100 ]
  in
  print_table
    ~columns:
      [ "tx since archive"; "committed total"; "audit records"; "tx redone";
        "images applied"; "recovery time"; "funds preserved" ]
    rows;
  observed
    "recovery time grows linearly with the audit to replay; every run ends \
     with the exact pre-failure committed state"
