module Transid = Tandem_sim.Transid

type tx_info = {
  transid : Transid.t;
  mutable local_volumes : string list;
  mutable children : Tandem_os.Ids.node_id list;
  mutable voted_yes : bool;
  mutable voted_at : Tandem_sim.Sim_time.t option;
  mutable decision_cast : bool;
  mutable locally_aborted : bool;
  mutable resolved : Tandem_audit.Monitor_trail.disposition option;
  mutable auto_abort : Tandem_sim.Engine.handle option;
  resolution_lock : Tandem_sim.Fiber_mutex.t;
}

type node_state = {
  node : Tandem_os.Node.t;
  tx_tables : Tx_table.t;
  monitor : Tandem_audit.Monitor_trail.t;
  trails : (string, Tandem_audit.Audit_trail.t) Hashtbl.t;
  audit_processes : (string, Tandem_audit.Audit_process.t) Hashtbl.t;
  participants : (string, Participant.t) Hashtbl.t;
  registry : tx_info Transid.Tbl.t;
  mutable generation : int;
  seq_counters : int array;
  begins : Tandem_sim.Metrics.counter Lazy.t;
  begins_here : Tandem_sim.Metrics.counter Lazy.t;
  tmp_name : string;
  backout_name : string;
}

let make_node_state ?(force_window = 0) ~node ~monitor_volume () =
  let metrics = Tandem_os.Node.metrics node in
  {
    node;
    tx_tables = Tx_table.create node;
    monitor = Tandem_audit.Monitor_trail.create ~force_window monitor_volume;
    trails = Hashtbl.create 4;
    audit_processes = Hashtbl.create 4;
    participants = Hashtbl.create 8;
    registry = Transid.Tbl.create 64;
    generation = 0;
    seq_counters = Array.make (Tandem_os.Node.cpu_count node) 0;
    begins = lazy (Tandem_sim.Metrics.counter metrics "tmf.begins");
    begins_here =
      lazy
        (Tandem_sim.Metrics.counter_with metrics "tmf.begins_by_node"
           ~labels:[ ("node", string_of_int (Tandem_os.Node.id node)) ]);
    tmp_name = "$TMP";
    backout_name = "$BACKOUT";
  }

let find_tx state transid = Transid.Tbl.find_opt state.registry transid

let ensure_tx state transid =
  match find_tx state transid with
  | Some info -> info
  | None ->
      let info =
        {
          transid;
          local_volumes = [];
          children = [];
          voted_yes = false;
          voted_at = None;
          decision_cast = false;
          locally_aborted = false;
          resolved = None;
          auto_abort = None;
          resolution_lock = Tandem_sim.Fiber_mutex.create ();
        }
      in
      Transid.Tbl.replace state.registry transid info;
      info

let forget_tx state transid = Transid.Tbl.remove state.registry transid

(* Participant/child registration never creates the entry: a live
   transaction is already registered (at BEGIN on its home node, by
   remote-begin elsewhere), so an absent transid means the transaction was
   resolved while this work was in flight — re-creating it would leave an
   orphan that no phase two will ever clean up. *)
let add_local_volume state transid volume =
  match find_tx state transid with
  | None -> ()
  | Some info ->
      if not (List.mem volume info.local_volumes) then
        info.local_volumes <- volume :: info.local_volumes

let add_child state transid node =
  match find_tx state transid with
  | None -> ()
  | Some info ->
      if not (List.mem node info.children) then
        info.children <- node :: info.children

let participants_of state transid =
  match find_tx state transid with
  | None -> []
  | Some info ->
      List.filter_map
        (fun volume -> Hashtbl.find_opt state.participants volume)
        info.local_volumes

let trails_of state transid =
  participants_of state transid
  |> List.map (fun p -> p.Participant.trail)
  |> List.sort_uniq String.compare
