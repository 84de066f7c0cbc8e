(* Shared machinery for the experiment harness: standard cluster builds,
   closed-loop load generation and measurement, bucketed throughput
   sampling, table printing and the committed BENCH_*.json writers. *)

open Tandem_sim
open Tandem_encompass

(* ------------------------------------------------------------------ *)
(* Table printing *)

let heading title = Printf.printf "\n### %s\n\n" title

let claim text = Printf.printf "paper: %s\n" text

let observed fmt = Printf.ksprintf (fun s -> Printf.printf "observed: %s\n" s) fmt

let print_table ~columns rows =
  let widths =
    List.mapi
      (fun i column ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length column) rows)
      columns
  in
  let print_row cells =
    List.iteri
      (fun i cell -> Printf.printf "%-*s  " (List.nth widths i) cell)
      cells;
    print_newline ()
  in
  print_row columns;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let f1 value = Printf.sprintf "%.1f" value

let f2 value = Printf.sprintf "%.2f" value

(* ------------------------------------------------------------------ *)
(* Run mode and committed JSON *)

(* Quick mode (TANDEM_BENCH_QUICK=1): tiny samples that prove the harness
   still builds and runs; estimates are meaningless, so committed BENCH_*
   files are left alone. *)
let quick_mode () =
  match Sys.getenv_opt "TANDEM_BENCH_QUICK" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let write_json path ~what json =
  let out = open_out path in
  output_string out (Json.to_string ~pretty:true json);
  output_string out "\n";
  close_out out;
  Printf.printf "\n%s written to %s\n" what path

(* A full run rewrites the committed file; a quick run says it did not. *)
let publish ~quick path ~what json =
  if quick then
    Printf.printf "quick mode: estimates meaningless, %s left untouched\n" path
  else write_json path ~what (json ())

(* ------------------------------------------------------------------ *)
(* Domain-parallel point fan-out

   Every bench point builds its own sealed cluster, so a batch of points
   is embarrassingly parallel. The job count is process-wide (set once
   from --jobs / TANDEM_JOBS by bench/main.ml); at the default of 1 the
   pool never spawns a domain and runs are byte-for-byte the serial
   harness. *)

let jobs = ref 1

let set_jobs n = jobs := max 1 n

let pool_jobs () = !jobs

let pool_map f items = Domain_pool.map ~jobs:!jobs f items

(* ------------------------------------------------------------------ *)
(* Standard banking cluster *)

type bank = {
  cluster : Cluster.t;
  tcps : Tcp.t list;
  spec : Workload.bank_spec;
  rng : Rng.t;
}

(* One node, [volumes] data volumes sharing the account file by key range,
   [tcps] TCPs of [terminals] each, BANK and TRANSFER classes. *)
let make_bank ?(seed = 42) ?(cpus = 4) ?(volumes = 1) ?(tcp_count = 1)
    ?(terminals = 8) ?(bank_servers = 2) ?(accounts = 500) ?lock_timeout
    ?restart_limit () =
  let cluster = Cluster.create ~seed ?lock_timeout ?restart_limit () in
  ignore (Cluster.add_node cluster ~id:1 ~cpus);
  let volume_names = List.init volumes (fun i -> Printf.sprintf "$DATA%d" (i + 1)) in
  List.iteri
    (fun i name ->
      ignore
        (Cluster.add_volume cluster ~node:1 ~name
           ~primary_cpu:((2 + i) mod cpus)
           ~backup_cpu:((3 + i) mod cpus)
           ()))
    volume_names;
  let spec =
    {
      Workload.accounts;
      tellers = 10 * max 1 (cpus / 2);
      branches = 5 * max 1 (cpus / 2);
      initial_balance = 1_000;
      account_partitions = List.map (fun name -> (1, name)) volume_names;
      system_home = (1, List.hd volume_names);
    }
  in
  Workload.install_bank cluster spec;
  ignore (Workload.add_bank_servers cluster ~node:1 ~count:bank_servers ());
  ignore (Workload.add_transfer_servers cluster ~node:1 ~count:bank_servers ());
  let tcps =
    List.init tcp_count (fun i ->
        Cluster.add_tcp cluster ~node:1
          ~name:(Printf.sprintf "$TCP%d" (i + 1))
          ~primary_cpu:(i mod cpus)
          ~backup_cpu:((i + 1) mod cpus)
          ~terminals ~program:Workload.debit_credit_program ())
  in
  { cluster; tcps; spec; rng = Rng.split (Engine.rng (Cluster.engine cluster)) }

(* Closed-loop load: pre-queue [per_terminal] inputs on every terminal so
   each terminal always has work. *)
let queue_debit_credit ?skew bank ~per_terminal =
  List.iter
    (fun tcp ->
      for terminal = 0 to Tcp.terminal_count tcp - 1 do
        for _ = 1 to per_terminal do
          Tcp.submit tcp ~terminal
            (Workload.debit_credit_input bank.rng bank.spec ?skew ())
        done
      done)
    bank.tcps

let total_completed bank = List.fold_left (fun acc tcp -> acc + Tcp.completed tcp) 0 bank.tcps

let total_failures bank = List.fold_left (fun acc tcp -> acc + Tcp.failures tcp) 0 bank.tcps

let total_restarts bank = List.fold_left (fun acc tcp -> acc + Tcp.restarts tcp) 0 bank.tcps

(* Committed-transaction counts per bucket over a run window. *)
let bucketed_throughput ~engine ~bucket ~buckets count_now =
  let samples = Array.make buckets 0 in
  let previous = ref (count_now ()) in
  for i = 0 to buckets - 1 do
    ignore
      (Engine.schedule_after engine ((i + 1) * bucket) (fun () ->
           let current = count_now () in
           samples.(i) <- current - !previous;
           previous := current))
  done;
  samples

let tx_per_second completed span =
  float_of_int completed /. Sim_time.to_seconds_float span

(* ------------------------------------------------------------------ *)
(* Three-node bank

   The ablation benches' cluster: nodes 1-3 of four processors, linked to
   node 1 (and to each other when [full_mesh]); one data volume $DATA<n>
   per node on processors 2/3; a 10-teller, 5-branch bank partitioned over
   those volumes; the server classes [servers] adds; and one TCP $TCP<n>
   per node, so commit homes spread across the cluster. *)
let three_node_bank ~seed ~config ?(full_mesh = false) ?cache_capacity
    ~accounts ~servers ~terminals ~program () =
  let cluster = Cluster.create ~seed ~config () in
  let nodes = [ 1; 2; 3 ] in
  List.iter (fun id -> ignore (Cluster.add_node cluster ~id ~cpus:4)) nodes;
  Cluster.link cluster 1 2;
  Cluster.link cluster 1 3;
  if full_mesh then Cluster.link cluster 2 3;
  let volume node = Printf.sprintf "$DATA%d" node in
  List.iter
    (fun node ->
      ignore
        (Cluster.add_volume cluster ~node ~name:(volume node) ~primary_cpu:2
           ~backup_cpu:3 ?cache_capacity ()))
    nodes;
  let spec =
    {
      Workload.accounts;
      tellers = 10;
      branches = 5;
      initial_balance = 10_000;
      account_partitions = List.map (fun node -> (node, volume node)) nodes;
      system_home = (1, volume 1);
    }
  in
  Workload.install_bank cluster spec;
  servers cluster;
  let tcps =
    List.map
      (fun node ->
        Cluster.add_tcp cluster ~node
          ~name:(Printf.sprintf "$TCP%d" node)
          ~terminals ~program ())
      nodes
  in
  (cluster, spec, tcps)

(* ------------------------------------------------------------------ *)
(* Closed-loop runs *)

(* Deal [inputs] round-robin over [tcps], spreading each TCP's share over
   its [terminals]; returns the number submitted. *)
let submit_round_robin tcps ~terminals inputs =
  let tcp_count = List.length tcps in
  List.iteri
    (fun i input ->
      Tcp.submit
        (List.nth tcps (i mod tcp_count))
        ~terminal:(i / tcp_count mod terminals)
        input)
    inputs;
  List.length inputs

type run = {
  committed : int;
  submitted : int;
  elapsed : Sim_time.span;
  tps : float;
  latency : Metrics.sample; (* encompass.tx_latency_ms *)
  counters : (string * int) list;
}

(* Run a cluster whose TCPs hold [submitted] queued inputs to the [until]
   bound, summing [counters] over their labels at the end. Elapsed is the
   instant the last input reaches a final disposition (completed, failed or
   program-aborted; polled every 10 ms), not the run bound: watchdog and
   retry machinery keep the event queue alive long after the workload
   drains. *)
let run_closed_loop ?(until = Sim_time.minutes 30) ?(counters = []) cluster
    tcps ~submitted =
  let sum_over f = List.fold_left (fun acc tcp -> acc + f tcp) 0 tcps in
  let engine = Cluster.engine cluster in
  let finish_time = ref None in
  let rec poll () =
    let settled =
      sum_over Tcp.completed + sum_over Tcp.failures
      + sum_over Tcp.program_aborts
    in
    if settled >= submitted then finish_time := Some (Engine.now engine)
    else ignore (Engine.schedule_after engine (Sim_time.milliseconds 10) poll)
  in
  ignore (Engine.schedule_after engine (Sim_time.milliseconds 10) poll);
  Cluster.run ~until cluster;
  let metrics = Cluster.metrics cluster in
  let elapsed =
    match !finish_time with Some t -> t | None -> Engine.now engine
  in
  let committed = sum_over Tcp.completed in
  {
    committed;
    submitted;
    elapsed;
    tps = tx_per_second committed elapsed;
    latency = Metrics.read_sample metrics "encompass.tx_latency_ms";
    counters =
      List.map (fun name -> (name, Metrics.sum_counters metrics name)) counters;
  }

(* A run's JSON fields, then its counters when it summed any. *)
let run_fields run =
  [
    ("committed", Json.Int run.committed);
    ("submitted", Json.Int run.submitted);
    ("elapsed_s", Json.Float (Sim_time.to_seconds_float run.elapsed));
    ("tx_per_sec", Json.Float run.tps);
    ("mean_latency_ms", Json.Float (Metrics.mean run.latency));
  ]

let counters_field run =
  if run.counters = [] then []
  else
    [
      ( "counters",
        Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) run.counters)
      );
    ]

(* A knob ablation: one row per configuration, and the all-on over all-off
   throughput ratio. *)
let ablation_json ~schema ~baseline_commit ?workload ~terminals rows =
  let tps_of label = Option.map (fun run -> run.tps) (List.assoc_opt label rows) in
  let row (label, run) =
    Json.Obj ((("config", Json.String label) :: run_fields run) @ counters_field run)
  in
  Json.Obj
    ([
       ("schema", Json.String schema);
       ("baseline_commit", Json.String baseline_commit);
     ]
    @ Option.fold ~none:[]
        ~some:(fun workload -> [ ("workload", Json.String workload) ])
        workload
    @ [
        ("terminals", Json.Int terminals);
        ("configs", Json.List (List.map row rows));
        ( "speedup_all_on_vs_all_off",
          match (tps_of "all-off", tps_of "all-on") with
          | Some off, Some on when off > 0.0 -> Json.Float (on /. off)
          | _ -> Json.Null );
      ])
