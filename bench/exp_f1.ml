(* F1 — Figure 1: the hardware architecture's fault tolerance.

   "Hardware redundancy is arranged so that the failure of a single module
   does not disable any other module or disable any inter-module
   communication." A continuous debit-credit stream runs while each class
   of single-module failure is injected; the table reports whether service
   continued and what it cost. The double failure row is the contrast: it
   is the case the architecture does NOT mask (TMF's ROLLFORWARD exists
   for it). *)

open Tandem_sim
open Tandem_os
open Tandem_encompass
open Bench_util

let run_scenario ~label inject =
  let bank = make_bank ~seed:17 ~cpus:4 ~terminals:8 () in
  queue_debit_credit bank ~per_terminal:25;
  let engine = Cluster.engine bank.cluster in
  (* Give the stream a head start, then hit it. *)
  ignore (Engine.schedule_after engine (Sim_time.seconds 2) (fun () -> inject bank));
  Cluster.run ~until:(Sim_time.minutes 3) bank.cluster;
  let offered = 8 * 25 in
  let metrics = Cluster.metrics bank.cluster in
  [
    label;
    Printf.sprintf "%d/%d" (total_completed bank) offered;
    string_of_int (total_restarts bank);
    string_of_int (Metrics.read_counter metrics "os.pair_takeovers");
    (if total_completed bank = offered then "yes" else "NO");
  ]

let run () =
  heading "F1 — single-module failures under load (Figure 1)";
  claim
    "failure of a single module does not disable any other module or \
     inter-module communication; multiple-module failure is not masked";
  let rows =
    [
      run_scenario ~label:"none (control)" (fun _ -> ());
      run_scenario ~label:"cpu (DISCPROCESS primary)" (fun bank ->
          Cluster.fail_cpu bank.cluster ~node:1 2);
      run_scenario ~label:"cpu (TCP primary)" (fun bank ->
          Cluster.fail_cpu bank.cluster ~node:1 0);
      run_scenario ~label:"interprocessor bus (one of two)" (fun bank ->
          Node.fail_bus (Net.node (Cluster.net bank.cluster) 1) `X);
      run_scenario ~label:"disc controller (one of two)" (fun bank ->
          Tandem_disk.Volume.fail_controller
            (Cluster.volume bank.cluster ~node:1 ~volume:"$DATA1")
            `A);
      run_scenario ~label:"disc drive (one mirror)" (fun bank ->
          Tandem_disk.Volume.fail_drive
            (Cluster.volume bank.cluster ~node:1 ~volume:"$DATA1")
            `M0);
      run_scenario ~label:"drive fail + REVIVE" (fun bank ->
          let volume = Cluster.volume bank.cluster ~node:1 ~volume:"$DATA1" in
          Tandem_disk.Volume.fail_drive volume `M0;
          ignore
            (Engine.schedule_after (Cluster.engine bank.cluster)
               (Sim_time.seconds 5) (fun () ->
                 Tandem_disk.Volume.revive_drive volume `M0 ~blocks:100)));
    ]
  in
  print_table
    ~columns:[ "failure injected"; "committed"; "restarts"; "takeovers"; "service continued" ]
    rows;
  (* The contrast: both processors of the volume's pair at once. *)
  let bank = make_bank ~seed:18 ~cpus:4 ~terminals:8 () in
  queue_debit_credit bank ~per_terminal:25;
  ignore
    (Engine.schedule_after (Cluster.engine bank.cluster)
       (Sim_time.milliseconds 500) (fun () ->
         Cluster.fail_cpu bank.cluster ~node:1 2;
         Cluster.fail_cpu bank.cluster ~node:1 3));
  Cluster.run ~until:(Sim_time.minutes 3) bank.cluster;
  observed
    "double failure (both processors of the pair): %d/200 committed, the rest \
     failed — volume service lost; the multiple-module case only ROLLFORWARD \
     repairs"
    (total_completed bank)
