(* E5 — "Recovery from failures ... does not require system halt or
   restart"; "Transactions uninvolved in the failure continue processing."

   The same debit-credit load runs against TMF (a processor fails and is
   taken over; only affected transactions restart) and against the
   conventional WAL manager (the crash halts everything; service resumes
   only after log-scan recovery). Throughput per 5-second bucket shows the
   difference in shape: a dip versus a hole. *)

open Tandem_sim
open Tandem_db
open Tandem_encompass
open Bench_util

let bucket = Sim_time.seconds 5

let buckets = 12 (* a one-minute window *)

let tmf_side () =
  let bank = make_bank ~seed:41 ~cpus:4 ~terminals:8 () in
  queue_debit_credit bank ~per_terminal:400;
  let engine = Cluster.engine bank.cluster in
  let samples =
    bucketed_throughput ~engine ~bucket ~buckets (fun () -> total_completed bank)
  in
  (* The DISCPROCESS primary's processor fails 20s in and reloads at 40s. *)
  ignore
    (Engine.schedule_after engine (Sim_time.seconds 20) (fun () ->
         Cluster.fail_cpu bank.cluster ~node:1 2));
  ignore
    (Engine.schedule_after engine (Sim_time.seconds 40) (fun () ->
         Cluster.restore_cpu bank.cluster ~node:1 2));
  Cluster.run ~until:(bucket * buckets) bank.cluster;
  (samples, total_restarts bank, total_failures bank)

let wal_side () =
  let engine = Engine.create ~seed:41 () in
  let metrics = Metrics.create () in
  let volume name =
    Tandem_disk.Volume.create engine ~metrics ~name
      ~access_time:(Sim_time.milliseconds 25)
  in
  let tm =
    Tandem_baseline.Wal_tm.create ~engine ~metrics ~data_volume:(volume "$DATA")
      ~log_volume:(volume "$LOG") ()
  in
  let accounts_def =
    Schema.define ~name:"ACCOUNT" ~organization:Schema.Key_sequenced ~degree:8
      ~partitions:[ { Schema.low_key = Key.min_key; node = 1; volume = "$D" } ]
      ()
  in
  Tandem_baseline.Wal_tm.add_file tm accounts_def;
  Tandem_baseline.Wal_tm.load_file tm ~file:"ACCOUNT"
    (List.init 500 (fun i -> (Key.of_int i, Record.encode [ ("balance", "1000") ])));
  let committed = ref 0 and lost = ref 0 in
  let rng = Rng.create ~seed:77 in
  (* Eight client fibers in a closed loop, the counterpart of the eight
     terminals on the TMF side. *)
  let rec client () =
    (match Tandem_baseline.Wal_tm.begin_transaction tm with
    | Error `Unavailable ->
        incr lost;
        Fiber.sleep engine (Sim_time.milliseconds 500)
    | Ok tx -> (
        let account = Key.of_int (Rng.int rng 500) in
        let step =
          match Tandem_baseline.Wal_tm.read tm tx ~file:"ACCOUNT" account with
          | Ok (Some payload) ->
              Tandem_baseline.Wal_tm.update tm tx ~file:"ACCOUNT" account
                (Record.set_field payload "balance"
                   (string_of_int
                      (Option.value ~default:0 (Record.int_field payload "balance") + 1)))
          | Ok None -> Error `Not_found
          | Error `Lock_timeout -> Error `Lock_timeout
          | Error `Halted -> Error `Halted
        in
        match step with
        | Ok () -> (
            match Tandem_baseline.Wal_tm.commit tm tx with
            | Ok () -> incr committed
            | Error `Halted -> incr lost)
        | Error _ ->
            Tandem_baseline.Wal_tm.abort tm tx;
            incr lost));
    if Engine.now engine < bucket * buckets then client ()
  in
  for _ = 1 to 8 do
    ignore (Fiber.spawn client)
  done;
  let samples = bucketed_throughput ~engine ~bucket ~buckets (fun () -> !committed) in
  ignore
    (Engine.schedule_after engine (Sim_time.seconds 20) (fun () ->
         Tandem_baseline.Wal_tm.crash tm;
         Tandem_baseline.Wal_tm.restart tm ~on_done:(fun () -> ())));
  Engine.run ~until:(bucket * buckets) engine;
  (samples, Tandem_baseline.Wal_tm.unavailable_total tm, !lost)

let run () =
  heading "E5 — processor failure: on-line backout (TMF) vs halt-and-restart (WAL)";
  claim
    "the effect of a processor failure is limited to the on-line backout of \
     the transactions in process on the failed module; transactions \
     uninvolved in the failure continue — no system halt or restart";
  let tmf_samples, tmf_restarts, tmf_failures = tmf_side () in
  let wal_samples, wal_outage, wal_lost = wal_side () in
  let rows =
    List.init buckets (fun i ->
        [
          Printf.sprintf "%d-%ds" (i * 5) ((i + 1) * 5);
          string_of_int tmf_samples.(i);
          string_of_int wal_samples.(i);
        ])
  in
  print_table ~columns:[ "window"; "TMF tx"; "WAL tx" ] rows;
  observed
    "TMF: failure at 20s, takeover ~1s later; %d transaction restarts, %d lost; \
     throughput dips but never reaches zero for long"
    tmf_restarts tmf_failures;
  observed
    "WAL: crash at 20s halts service for %s (restart scan); %d requests failed \
     or were lost during the outage"
    (Sim_time.to_string wal_outage) wal_lost
