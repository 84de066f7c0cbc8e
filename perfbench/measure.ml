(* One measured iteration of a workload on one input set: timed set-up
   through the public API, one run to settlement, then the correctness gate.

   Wall-clock spans wrap only the benchmark's own calls into the program:
   [Cluster.create] and the [Cluster.add_*] calls (build),
   [Workload.install_bank] (load), the [Tcp.submit] loop (submit) and
   [Cluster.run] (run). Everything in {!sim} reads the simulated clock or
   counts, which repeat exactly for one input set. *)

open Tandem_sim
open Tandem_os
open Tandem_db
open Tandem_encompass

(* Wall spans as measured, and the host speed factor measured right after
   them (see {!Reference}). *)
type setup = { build_s : float; load_s : float; submit_s : float; speed : float }

(* Set-up seconds at the reference speed. *)
let setup_s s = (s.build_s +. s.load_s +. s.submit_s) *. s.speed

(* The simulated side of one or more iterations: additive totals and a
   snapshot of the metrics registry taken at settlement. *)
type sim = {
  submitted : int;
  committed : int;
  failed : int;  (** Inputs abandoned at the restart limit. *)
  program_aborts : int;
  restarts : int;
  elapsed_s : float;  (** Simulated, first submit to settlement. *)
  events : int;
  cancelled : int;
  cpu_busy_s : float array;  (** Per processor, in node and processor order. *)
  registry : Metrics.t;
}

type iteration = {
  setup : setup;
  run_s : float;  (** Wall time of [Cluster.run] to settlement. *)
  speed : float;  (** Host speed factor measured during the run. *)
  layer_samples : int array option;
      (** SIGPROF samples per {!Sampler.layers} entry, when profiled. *)
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  sim : sim;
  checks : Tandem_chaos.Checker.check list;
}

let wall f =
  let start = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. start)

let sum_tcps (b : Workloads.built) f =
  Array.fold_left (fun acc tcp -> acc + f tcp) 0 b.tcps

let settled (b : Workloads.built) =
  sum_tcps b Tcp.completed + sum_tcps b Tcp.failures
  + sum_tcps b Tcp.program_aborts

(* Run in 10 ms simulated steps until every submitted input has settled
   (committed, abandoned at the restart limit or ended by
   ABORT-TRANSACTION). The engine never runs dry on its own — periodic
   timers keep it busy — so the run stops at the first step boundary after
   settlement, or gives up after 60 simulated minutes. *)
let run_to_settlement (b : Workloads.built) ~submitted tick =
  let engine = Cluster.engine b.cluster in
  let limit = Sim_time.minutes 60 in
  let rec go () =
    if settled b >= submitted then Some (Engine.now engine)
    else if Engine.now engine >= limit then None
    else begin
      Cluster.run ~until:(Engine.now engine + Sim_time.milliseconds 10) b.cluster;
      tick ();
      go ()
    end
  in
  go ()

(* After settlement, phase two and lock releases may still be in flight;
   give them simulated time (outside every measurement) before the gate. *)
let quiesce (b : Workloads.built) = Cluster.run_for b.cluster (Sim_time.seconds 30)

(* Reads outside any fiber: suspend physical-I/O charging meanwhile. *)
let fold_history cluster (node, volume, name) ~init f =
  let dp = Cluster.discprocess cluster ~node ~volume in
  match Discprocess.file dp name with
  | None -> init
  | Some file ->
      let store = Discprocess.store dp in
      Store.set_charging store false;
      Fun.protect
        ~finally:(fun () -> Store.set_charging store true)
        (fun () ->
          let acc = ref init in
          File.iter file (fun _ payload -> acc := f !acc payload);
          !acc)

let check name passed detail = { Tandem_chaos.Checker.name; passed; detail }

(* The correctness gate. [Checker.bank] supplies funds-conserved,
   committed-durable, locks-drained, registry-drained, mirrors-converged
   and network-healed; its funds and history checks read the single
   HISTORY file on the bank's system volume, so where debit-credit appends
   to per-node HISTORY<n> files (scaleout-8n) both are recomputed over
   those files instead. Where debit-credit shares terminals with other
   transactions (read-mostly-3n) the committed debit-credits are not
   counted separately, and the history count is checked to lie between
   the debit-credits submitted less every unsuccessful input and the
   debit-credits submitted. *)
let gate (b : Workloads.built) (inputs : Workloads.input array) ~submitted
    ~committed ~failed ~program_aborts =
  let spec = b.spec in
  let initial_total = spec.accounts * spec.initial_balance in
  let per_node_history = b.histories <> Workloads.history_of spec in
  let dc_submitted =
    Array.fold_left
      (fun acc (i : Workloads.input) -> if i.debit_credit then acc + 1 else acc)
      0 inputs
  in
  let dc_completed =
    match b.dc_pools with
    | [] -> None
    | pools ->
        Some
          (List.fold_left (fun acc p -> acc + Tcp.completed b.tcps.(p)) 0 pools)
  in
  let verdict =
    Tandem_chaos.Checker.bank b.cluster ~spec ~initial_total
      ?debit_credit_completed:(if per_node_history then None else dc_completed)
      ()
  in
  let history_count, delta_sum =
    List.fold_left
      (fun acc history ->
        fold_history b.cluster history ~init:acc (fun (n, d) payload ->
            (n + 1, d + Option.value ~default:0 (Record.int_field payload "delta"))))
      (0, 0) b.histories
  in
  let funds =
    if per_node_history then
      let total = Workload.total_balance b.cluster spec in
      let expected = initial_total + delta_sum in
      [
        check "funds-conserved" (total = expected)
          (Printf.sprintf
             "balance total %d, expected %d (initial %d + deltas %d over %d \
              history files)"
             total expected initial_total delta_sum (List.length b.histories));
      ]
    else []
  in
  let durable =
    match (dc_completed, per_node_history) with
    | Some completed, true ->
        [
          check "committed-durable" (history_count = completed)
            (Printf.sprintf
               "%d history records over %d files for %d committed debit-credits"
               history_count (List.length b.histories) completed);
        ]
    | Some _, false -> [] (* Checker.bank checked it *)
    | None, _ ->
        let lo = dc_submitted - failed - program_aborts in
        [
          check "committed-durable"
            (lo <= history_count && history_count <= dc_submitted)
            (Printf.sprintf
               "%d history records for %d debit-credits submitted, %d inputs \
                unsuccessful"
               history_count dc_submitted (failed + program_aborts));
        ]
  in
  let settled =
    check "inputs-settled"
      (committed + failed + program_aborts = submitted)
      (Printf.sprintf "%d committed + %d failed + %d program-aborted of %d submitted"
         committed failed program_aborts submitted)
  in
  let from_checker =
    List.filter
      (fun (c : Tandem_chaos.Checker.check) ->
        not (per_node_history && String.equal c.name "funds-conserved"))
      verdict.checks
  in
  (settled :: funds) @ durable @ from_checker

let snapshot metrics =
  let copy = Metrics.create () in
  Metrics.merge ~into:copy metrics;
  copy

let sim_of (b : Workloads.built) ~submitted ~settled_at =
  let engine = Cluster.engine b.cluster in
  {
    submitted;
    committed = sum_tcps b Tcp.completed;
    failed = sum_tcps b Tcp.failures;
    program_aborts = sum_tcps b Tcp.program_aborts;
    restarts = sum_tcps b Tcp.restarts;
    elapsed_s =
      Sim_time.to_seconds_float (Option.value settled_at ~default:(Engine.now engine));
    events = Engine.events_executed engine;
    cancelled = Engine.events_cancelled engine;
    cpu_busy_s =
      Array.of_list
        (List.concat_map
           (fun node ->
             List.init (Node.cpu_count node) (fun i ->
                 Sim_time.to_seconds_float (Cpu.total_busy (Node.cpu node i))))
           (Net.nodes (Cluster.net b.cluster)));
    registry = snapshot (Cluster.metrics b.cluster);
  }

(* Several input sets' simulated side as one: counts add, processor busy
   times add per processor, registries merge (samples pool). *)
let pool = function
  | [] -> invalid_arg "Measure.pool: no iterations"
  | first :: rest ->
      List.fold_left
        (fun acc s ->
          let registry = snapshot acc.registry in
          Metrics.merge ~into:registry s.registry;
          {
            submitted = acc.submitted + s.submitted;
            committed = acc.committed + s.committed;
            failed = acc.failed + s.failed;
            program_aborts = acc.program_aborts + s.program_aborts;
            restarts = acc.restarts + s.restarts;
            elapsed_s = acc.elapsed_s +. s.elapsed_s;
            events = acc.events + s.events;
            cancelled = acc.cancelled + s.cancelled;
            cpu_busy_s = Array.map2 ( +. ) acc.cpu_busy_s s.cpu_busy_s;
            registry;
          })
        first rest

let sample_mean metrics name =
  let s = Metrics.read_sample metrics name in
  if Metrics.sample_count s = 0 then 0.0 else Metrics.mean s

(* Every simulated-clock metric and count, in a fixed order. *)
let counts s =
  let metrics = s.registry in
  let latency = Metrics.read_sample metrics "encompass.tx_latency_ms" in
  let utils = Array.map (fun busy -> busy /. s.elapsed_s) s.cpu_busy_s in
  let c name = float_of_int (Metrics.read_counter metrics name) in
  let family name = float_of_int (Metrics.sum_counters metrics name) in
  let i v = float_of_int v in
  [
    ("submitted", i s.submitted);
    ("committed", i s.committed);
    ("failed", i s.failed);
    ("program_aborts", i s.program_aborts);
    ("restarts", i s.restarts);
    ("sim.elapsed_s", s.elapsed_s);
    ("sim.events_executed", i s.events);
    ("sim.events_cancelled", i s.cancelled);
    ("latency.samples", i (Metrics.sample_count latency));
    ("latency.mean_ms", Metrics.mean latency);
    ("latency.p50_ms", Metrics.percentile latency 0.5);
    ("latency.p99_ms", Metrics.percentile latency 0.99);
    ("os.cpu_util_max", Array.fold_left Float.max 0.0 utils);
    ( "os.cpu_util_mean",
      Array.fold_left ( +. ) 0.0 utils /. float_of_int (Array.length utils) );
    ("net.msgs_sent", c "net.msgs_sent");
    ("net.boxcars", c "net.boxcars");
    ("net.retransmits", c "net.retransmits");
    ("rpc.calls", family "rpc.calls");
    ("os.checkpoints", c "os.checkpoints");
    ("disk.reads", c "disk.reads");
    ("disk.writes", c "disk.writes");
    ("disk.forced_writes", c "disk.forced_writes");
    ("disk.cache_hits", c "disk.cache_hits");
    ("disk.cache_misses", c "disk.cache_misses");
    ("disk.force_batch_size", sample_mean metrics "disk.force_batch_size");
    ("lock.waits", c "lock.waits");
    ("lock.timeouts", c "lock.timeouts");
    ("lock.grants_after_wait", c "lock.grants_after_wait");
    ("audit.forces", family "audit.forces");
    ("tmf.images_undone", c "tmf.images_undone");
    ("tmf.begins", c "tmf.begins");
    ("tmf.aborts", c "tmf.aborts");
    ("tmf.commits_by_node", family "tmf.commits_by_node");
    ("tmf.state_broadcast_msgs", c "tmf.state_broadcast_msgs");
    ("tmp.read_only_votes", c "tmp.read_only_votes");
    ("tmp.phase2_pruned", c "tmp.phase2_pruned");
    ("tmp.fast_path_commits", c "tmp.fast_path_commits");
    ("encompass.restarts", c "encompass.restarts");
    ("dp.coalesced_checkpoints", c "dp.coalesced_checkpoints");
  ]

(* MD5 over every count and the whole registry: equal digests mean an
   identical simulated run. *)
let digest s =
  let buffer = Buffer.create 4096 in
  List.iter
    (fun (name, v) -> Buffer.add_string buffer (Printf.sprintf "%s=%.17g\n" name v))
    (counts s);
  Buffer.add_string buffer (Json.to_string (Metrics.to_json s.registry));
  Digest.to_hex (Digest.string (Buffer.contents buffer))

(* Build, load and submit: the set-up that [setup_s] times. *)
let set_up (w : Workloads.t) size (inputs : Workloads.input array) =
  let load_s = ref 0.0 in
  let install cluster spec =
    let (), s = wall (fun () -> Workload.install_bank cluster spec) in
    load_s := s
  in
  let b, build_and_load_s = wall (fun () -> w.build size ~install) in
  let (), submit_s =
    wall (fun () ->
        Array.iter
          (fun (i : Workloads.input) ->
            Tcp.submit b.tcps.(i.pool) ~terminal:i.terminal i.text)
          inputs)
  in
  let speed = Reference.speed_now 20 in
  (b, { build_s = build_and_load_s -. !load_s; load_s = !load_s; submit_s; speed })

let iteration (w : Workloads.t) size (inputs : Workloads.input array) ~profile =
  let b, setup = set_up w size inputs in
  let submitted = Array.length inputs in
  let gc_before = Gc.quick_stat () in
  let run tick =
    if profile then
      let settled_at, samples =
        Sampler.profile (fun () -> run_to_settlement b ~submitted tick)
      in
      (settled_at, Some samples)
    else (run_to_settlement b ~submitted tick, None)
  in
  (* A burst every 50 steps: every half simulated second. *)
  let (settled_at, layer_samples), run_s, speed =
    Reference.interleaved ~every:50 run
  in
  let gc_after = Gc.quick_stat () in
  let sim = sim_of b ~submitted ~settled_at in
  quiesce b;
  {
    setup;
    run_s;
    speed;
    layer_samples;
    minor_words = gc_after.minor_words -. gc_before.minor_words;
    promoted_words = gc_after.promoted_words -. gc_before.promoted_words;
    minor_collections = gc_after.minor_collections - gc_before.minor_collections;
    major_collections = gc_after.major_collections - gc_before.major_collections;
    sim;
    checks =
      gate b inputs ~submitted ~committed:sim.committed ~failed:sim.failed
        ~program_aborts:sim.program_aborts;
  }
