open Tandem_encompass
open Tandem_os

(* A transaction pinned mid-commit: begun at [home], its writes and yes
   vote at [participant], and — optionally — the home's commit decision
   made durable, with phase two never sent. Crashing the home right after
   produces exactly the window the commit protocols differ on. *)

type pinned = {
  transid : Tmf.Transid.t option;
      (* [None] if the setup itself failed — surfaced as a failing check,
         never an exception out of a fiber. *)
  from_account : int;
  to_account : int;
  amount : int;
}

(* Accounts on a node's partition of the ACCOUNT file: partition [i] of [n]
   covers keys [i*accounts/n, (i+1)*accounts/n). [offset] picks distinct
   accounts per pinned transaction so their lock sets never overlap. *)
let partition_base spec ~node =
  let nodes = List.map fst spec.Workload.account_partitions in
  let rec position i = function
    | [] -> invalid_arg "Indoubt.partition_base: node has no partition"
    | n :: _ when n = node -> i
    | _ :: rest -> position (i + 1) rest
  in
  position 0 nodes * spec.Workload.accounts / List.length nodes

(* [Cluster.run_client] only spawns the fiber; the caller owns the engine.
   Pump it in millisecond slices until the fiber signals completion, so a
   pin is fully in place — locks held, vote cast — before the scenario's
   fault instant arrives. The bound only guards against a wedged fiber;
   completion is what ends the loop. *)
let drive_to_completion cluster finished =
  let rec pump budget =
    if (not !finished) && budget > 0 then begin
      Cluster.run_for cluster (Tandem_sim.Sim_time.milliseconds 1);
      pump (budget - 1)
    end
  in
  pump 1_000

let spawn_and_drive cluster ~node ~cpu body =
  let finished = ref false in
  Cluster.run_client cluster ~node ~cpu (fun self ->
      Fun.protect ~finally:(fun () -> finished := true) (fun () -> body self));
  drive_to_completion cluster finished

let adjust_balance files ~self ~transid ~account delta =
  let key = Tandem_db.Key.of_int account in
  match
    File_client.read files ~self ~transid ~file:Workload.account_file key
  with
  | Ok (Some payload) -> (
      let balance =
        Option.value ~default:0
          (Tandem_db.Record.int_field payload "balance")
      in
      match
        File_client.update files ~self ~transid ~file:Workload.account_file
          key
          (Tandem_db.Record.set_field payload "balance"
             (string_of_int (balance + delta)))
      with
      | Ok () -> true
      | Error _ -> false)
  | Ok None | Error _ -> false

(* Begin at [home], debit/credit two accounts on [participant]'s partition
   (a conserving transfer, so the bank invariants hold under either
   disposition), then drive phase one at the participant: it flushes,
   forces, votes yes — and under Paxos Commit replicates its Prepared vote
   — then holds its locks for a verdict that will never arrive from this
   home. *)
let pin_transfer cluster ~home ~participant ~from_account ~to_account ~amount
    =
  let tmf = Cluster.tmf cluster in
  let files = Cluster.files cluster in
  let pinned = ref None in
  spawn_and_drive cluster ~node:home ~cpu:1 (fun self ->
      let transid = Tmf.begin_transaction tmf ~node:home ~cpu:1 in
      if
        adjust_balance files ~self ~transid ~account:from_account (-amount)
        && adjust_balance files ~self ~transid ~account:to_account amount
      then
        match
          Rpc.call_name (Cluster.net cluster) ~self ~node:participant
            ~name:"$TMP"
            (Tmf.Tmp.Prepare transid)
        with
        | Ok Tmf.Tmp.Prepared_reply -> pinned := Some transid
        | Ok _ | Error _ -> ());
  { transid = !pinned; from_account; to_account; amount }

(* The home's commit decision under 2PC: a forced Committed record in its
   Monitor Audit Trail — the state of a TMP that died between its commit
   point and the first phase-two send. *)
let decide_2pc cluster ~home pinned =
  match pinned.transid with
  | None -> false
  | Some transid ->
      let decided = ref false in
      spawn_and_drive cluster ~node:home ~cpu:1 (fun _self ->
          Tandem_audit.Monitor_trail.record
            (Tmf.node_state (Cluster.tmf cluster) home).Tmf.Tmf_state.monitor
            ~transid Tandem_audit.Monitor_trail.Committed;
          decided := true);
      !decided

(* The home's commit decision under Paxos Commit: its own vote plus the
   participant manifest cast to the acceptors at ballot 0 — durable at a
   majority, with phase two never sent. *)
let decide_paxos cluster ~home ~participants ~acceptor_count pinned =
  match pinned.transid with
  | None -> false
  | Some transid ->
      let decided = ref false in
      spawn_and_drive cluster ~node:home ~cpu:1 (fun self ->
          let net = Cluster.net cluster in
          let acceptors = Tmf.Paxos_commit.acceptor_nodes net acceptor_count in
          match
            Tmf.Paxos_commit.cast_decision net ~self ~acceptors ~home
              ~participants transid
          with
          | Ok () -> decided := true
          | Error _ -> ());
      !decided

(* ------------------------------------------------------------------ *)
(* Probes (uncharged reads, like the checker's). *)

let in_doubt_count cluster ~node =
  List.length
    (Tmf.Tmp.in_doubt_transactions (Tmf.tmp (Cluster.tmf cluster) node))

let disposition cluster ~node pinned =
  match pinned.transid with
  | None -> None
  | Some transid -> Tmf.disposition (Cluster.tmf cluster) ~node transid

let disposition_name = function
  | None -> "none"
  | Some Tandem_audit.Monitor_trail.Committed -> "committed"
  | Some Tandem_audit.Monitor_trail.Aborted -> "aborted"
