(* E6 — "checkpoint is the functional equivalent of Write Ahead Log":
   because the DISCPROCESS checkpoints audit records to its backup before
   updating, TMF need not force audit before every data-base update — only
   the group force at phase one plus the commit record. The conventional
   WAL discipline forces the log before every update and again at commit.

   Both systems run the same 4-update transaction profile; the table
   counts forced physical writes per transaction and the commit latency. *)

open Tandem_sim
open Tandem_db
open Tandem_encompass
open Bench_util

let transactions = 60

let tmf_side () =
  let bank = make_bank ~seed:43 ~cpus:4 ~terminals:4 () in
  let audit_volume = Cluster.volume bank.cluster ~node:1 ~volume:"$AUDITVOL" in
  let monitor_volume = Cluster.volume bank.cluster ~node:1 ~volume:"$SYSTEM" in
  queue_debit_credit bank ~per_terminal:(transactions / 4);
  Cluster.run ~until:(Sim_time.minutes 5) bank.cluster;
  let committed = total_completed bank in
  let forced =
    Tandem_disk.Volume.forced_writes audit_volume
    + Tandem_disk.Volume.forced_writes monitor_volume
  in
  let checkpoints =
    Metrics.read_counter (Cluster.metrics bank.cluster) "os.checkpoints"
  in
  let latency =
    Metrics.mean (Metrics.read_sample (Cluster.metrics bank.cluster) "encompass.tx_latency_ms")
  in
  (committed, forced, checkpoints, latency)

let wal_side () =
  let engine = Engine.create ~seed:43 () in
  let metrics = Metrics.create () in
  let volume name =
    Tandem_disk.Volume.create engine ~metrics ~name
      ~access_time:(Sim_time.milliseconds 25)
  in
  let log_volume = volume "$LOG" in
  let tm =
    Tandem_baseline.Wal_tm.create ~engine ~metrics ~data_volume:(volume "$DATA")
      ~log_volume ()
  in
  List.iter
    (fun name ->
      Tandem_baseline.Wal_tm.add_file tm
        (Schema.define ~name ~organization:Schema.Key_sequenced ~degree:8
           ~partitions:[ { Schema.low_key = Key.min_key; node = 1; volume = "$D" } ]
           ());
      Tandem_baseline.Wal_tm.load_file tm ~file:name
        (List.init 500 (fun i -> (Key.of_int i, Record.encode [ ("balance", "1000") ]))))
    [ "ACCOUNT"; "TELLER"; "BRANCH"; "HISTORY" ];
  let committed = ref 0 in
  let latencies = Metrics.sample metrics "wal.latency" in
  let rng = Rng.create ~seed:99 in
  ignore
    (Fiber.spawn (fun () ->
         for _ = 1 to transactions do
           let started = Engine.now engine in
           match Tandem_baseline.Wal_tm.begin_transaction tm with
           | Error `Unavailable -> ()
           | Ok tx ->
               (* The same four updates a debit-credit performs. *)
               let bump file =
                 let key = Key.of_int (Rng.int rng 500) in
                 match Tandem_baseline.Wal_tm.read tm tx ~file key with
                 | Ok (Some payload) ->
                     ignore
                       (Tandem_baseline.Wal_tm.update tm tx ~file key
                          (Record.set_field payload "balance" "1"))
                 | _ -> ()
               in
               List.iter bump [ "ACCOUNT"; "TELLER"; "BRANCH"; "HISTORY" ];
               (match Tandem_baseline.Wal_tm.commit tm tx with
               | Ok () ->
                   incr committed;
                   Metrics.observe latencies
                     (float_of_int (Sim_time.diff (Engine.now engine) started) /. 1e3)
               | Error `Halted -> ())
         done));
  Engine.run engine;
  ( !committed,
    Tandem_disk.Volume.forced_writes log_volume,
    Metrics.mean latencies )

let run () =
  heading "E6 — forced writes per transaction: checkpoint vs Write-Ahead-Log";
  claim
    "checkpointing audit to the backup process eliminates the WAL rule's \
     force-before-update; audit is only write-forced at commit (phase one)";
  let tmf_committed, tmf_forced, checkpoints, tmf_latency = tmf_side () in
  let wal_committed, wal_forced, wal_latency = wal_side () in
  print_table
    ~columns:[ "system"; "tx"; "forced writes"; "forced/tx"; "checkpoints/tx"; "latency ms" ]
    [
      [
        "TMF (checkpoint)";
        string_of_int tmf_committed;
        string_of_int tmf_forced;
        f2 (float_of_int tmf_forced /. float_of_int tmf_committed);
        f2 (float_of_int checkpoints /. float_of_int tmf_committed);
        f1 tmf_latency;
      ];
      [
        "WAL (force per update)";
        string_of_int wal_committed;
        string_of_int wal_forced;
        f2 (float_of_int wal_forced /. float_of_int wal_committed);
        "-";
        f1 wal_latency;
      ];
    ];
  observed
    "TMF pays ~2 forces per transaction (audit group force + commit record) \
     plus cheap bus checkpoints; WAL pays one force per update plus the \
     commit record (~5 for this profile)"
