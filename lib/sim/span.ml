type outcome = Pending | Committed | Aborted of string

let outcome_to_string = function
  | Pending -> "pending"
  | Committed -> "committed"
  | Aborted reason -> "aborted: " ^ reason

type span = {
  span_id : Transid.t;
  begin_at : Sim_time.t;
  mutable phase1_at : Sim_time.t option;
  mutable phase2_at : Sim_time.t option;
  mutable backout_at : Sim_time.t option;
  mutable end_at : Sim_time.t option;
  mutable outcome : outcome;
  mutable messages : int;
  mutable prepares : int;
  mutable phase2_msgs : int;
  mutable forced_writes : int;
  mutable lock_waits : int;
  mutable restarts : int;
  mutable images_undone : int;
  mutable remote_nodes : int;
  mutable state_broadcasts : int;
}

type t = {
  engine : Engine.t;
  capacity : int;
  active_table : span Transid.Tbl.t;
  finished_table : span Transid.Tbl.t;
  mutable finished : span list; (* newest first, trimmed to capacity *)
  mutable finished_size : int;
  mutable total_started : int;
  mutable total_committed : int;
  mutable total_aborted : int;
}

let create ?(capacity = 4096) engine =
  {
    engine;
    capacity;
    active_table = Transid.Tbl.create 256;
    finished_table = Transid.Tbl.create 256;
    finished = [];
    finished_size = 0;
    total_started = 0;
    total_committed = 0;
    total_aborted = 0;
  }

let start t id =
  match Transid.Tbl.find_opt t.active_table id with
  | Some span -> span
  | None ->
      let span =
        {
          span_id = id;
          begin_at = Engine.now t.engine;
          phase1_at = None;
          phase2_at = None;
          backout_at = None;
          end_at = None;
          outcome = Pending;
          messages = 0;
          prepares = 0;
          phase2_msgs = 0;
          forced_writes = 0;
          lock_waits = 0;
          restarts = 0;
          images_undone = 0;
          remote_nodes = 0;
          state_broadcasts = 0;
        }
      in
      Transid.Tbl.replace t.active_table id span;
      t.total_started <- t.total_started + 1;
      span

(* Late events (a retried phase-two delivery, a restart against a resolved
   transid) may still refer to a finished span; unknown ids are dropped —
   the registry must never be grown by stray lock owners or replays. *)
let find t id =
  match Transid.Tbl.find_opt t.active_table id with
  | Some _ as hit -> hit
  | None -> Transid.Tbl.find_opt t.finished_table id

let with_span t id f = match find t id with Some span -> f span | None -> ()

let mark_phase1 t id =
  with_span t id (fun span ->
      if span.phase1_at = None then span.phase1_at <- Some (Engine.now t.engine))

let mark_phase2 t id =
  with_span t id (fun span ->
      if span.phase2_at = None then span.phase2_at <- Some (Engine.now t.engine))

let mark_backout t id =
  with_span t id (fun span ->
      if span.backout_at = None then
        span.backout_at <- Some (Engine.now t.engine))

let add_messages t id n = with_span t id (fun span -> span.messages <- span.messages + n)

let incr_prepares t id = with_span t id (fun span -> span.prepares <- span.prepares + 1)

let incr_phase2_msgs t id =
  with_span t id (fun span -> span.phase2_msgs <- span.phase2_msgs + 1)

let incr_forced_writes t id =
  with_span t id (fun span -> span.forced_writes <- span.forced_writes + 1)

let incr_lock_waits t id =
  with_span t id (fun span -> span.lock_waits <- span.lock_waits + 1)

let incr_restarts t id = with_span t id (fun span -> span.restarts <- span.restarts + 1)

let add_images_undone t id n =
  with_span t id (fun span -> span.images_undone <- span.images_undone + n)

let incr_remote_nodes t id =
  with_span t id (fun span -> span.remote_nodes <- span.remote_nodes + 1)

let add_state_broadcasts t id n =
  with_span t id (fun span -> span.state_broadcasts <- span.state_broadcasts + n)

let finish t id outcome =
  match Transid.Tbl.find_opt t.active_table id with
  | None -> None (* already finished (or never started): keep the first verdict *)
  | Some span ->
      span.end_at <- Some (Engine.now t.engine);
      span.outcome <- outcome;
      (match outcome with
      | Committed -> t.total_committed <- t.total_committed + 1
      | Aborted _ -> t.total_aborted <- t.total_aborted + 1
      | Pending -> ());
      Transid.Tbl.remove t.active_table id;
      Transid.Tbl.replace t.finished_table id span;
      t.finished <- span :: t.finished;
      t.finished_size <- t.finished_size + 1;
      if t.finished_size > t.capacity then begin
        (* Drop the oldest half in one pass to amortize the trim. *)
        let keep = t.capacity / 2 in
        t.finished <-
          List.filteri
            (fun i kept_span ->
              if i < keep then true
              else begin
                Transid.Tbl.remove t.finished_table kept_span.span_id;
                false
              end)
            t.finished;
        t.finished_size <- keep
      end;
      Some span

let duration span =
  Option.map (fun end_at -> Sim_time.diff end_at span.begin_at) span.end_at

let active_count t = Transid.Tbl.length t.active_table

let finished t = List.rev t.finished

let finished_count t = t.finished_size

let started_total t = t.total_started

let committed_total t = t.total_committed

let aborted_total t = t.total_aborted

let slowest ?(n = 10) t =
  let keyed =
    List.filter_map
      (fun span -> Option.map (fun d -> (d, span)) (duration span))
      t.finished
  in
  let sorted = List.sort (fun (a, _) (b, _) -> Int.compare b a) keyed in
  List.filteri (fun i _ -> i < n) (List.map snd sorted)

let abort_reasons t =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun span ->
      match span.outcome with
      | Aborted reason ->
          Hashtbl.replace counts reason
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts reason))
      | Committed | Pending -> ())
    t.finished;
  Hashtbl.fold (fun reason count acc -> (reason, count) :: acc) counts []
  |> List.sort (fun (ra, a) (rb, b) ->
         match Int.compare b a with 0 -> String.compare ra rb | c -> c)

(* ------------------------------------------------------------------ *)
(* Rendering *)

let pp_stamp formatter = function
  | None -> Format.pp_print_string formatter "-"
  | Some time -> Sim_time.pp formatter time

let pp_span formatter span =
  Format.fprintf formatter
    "%a  begin=%a p1=%a p2=%a backout=%a end=%a  %s  msgs=%d prepares=%d \
     p2msgs=%d forces=%d lockwaits=%d restarts=%d undone=%d remote=%d"
    Transid.pp span.span_id Sim_time.pp span.begin_at pp_stamp span.phase1_at
    pp_stamp span.phase2_at pp_stamp span.backout_at pp_stamp span.end_at
    (outcome_to_string span.outcome)
    span.messages span.prepares span.phase2_msgs span.forced_writes
    span.lock_waits span.restarts span.images_undone span.remote_nodes

let pp_summary ?(top = 10) formatter t =
  Format.fprintf formatter
    "spans: %d started, %d committed, %d aborted, %d still active@."
    t.total_started t.total_committed t.total_aborted (active_count t);
  (match slowest ~n:top t with
  | [] -> ()
  | spans ->
      Format.fprintf formatter "@.slowest transactions:@.";
      List.iter
        (fun span ->
          let d = Option.value ~default:0 (duration span) in
          Format.fprintf formatter "  %8.1f ms  %a@."
            (float_of_int d /. 1e3)
            pp_span span)
        spans);
  match abort_reasons t with
  | [] -> ()
  | reasons ->
      Format.fprintf formatter "@.backout reasons:@.";
      List.iter
        (fun (reason, count) ->
          Format.fprintf formatter "  %5d  %s@." count reason)
        reasons

let stamp_json = function
  | None -> Json.Null
  | Some time -> Json.Int time

let to_json span =
  Json.Obj
    [
      ("transid", Json.String (Transid.to_string span.span_id));
      ("begin_us", Json.Int span.begin_at);
      ("phase1_us", stamp_json span.phase1_at);
      ("phase2_us", stamp_json span.phase2_at);
      ("backout_us", stamp_json span.backout_at);
      ("end_us", stamp_json span.end_at);
      ("outcome", Json.String (outcome_to_string span.outcome));
      ("messages", Json.Int span.messages);
      ("prepares", Json.Int span.prepares);
      ("phase2_msgs", Json.Int span.phase2_msgs);
      ("forced_writes", Json.Int span.forced_writes);
      ("lock_waits", Json.Int span.lock_waits);
      ("restarts", Json.Int span.restarts);
      ("images_undone", Json.Int span.images_undone);
      ("remote_nodes", Json.Int span.remote_nodes);
      ("state_broadcasts", Json.Int span.state_broadcasts);
    ]

let summary_json ?(top = 10) t =
  Json.Obj
    [
      ("started", Json.Int t.total_started);
      ("committed", Json.Int t.total_committed);
      ("aborted", Json.Int t.total_aborted);
      ("active", Json.Int (active_count t));
      ("slowest", Json.List (List.map to_json (slowest ~n:top t)));
      ( "backout_reasons",
        Json.Obj
          (List.map (fun (reason, count) -> (reason, Json.Int count)) (abort_reasons t))
      );
    ]
