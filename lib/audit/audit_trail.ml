open Tandem_sim
open Tandem_disk

(* A closed or current audit file. Appends only ever go to the current
   (newest) file, so each file holds one contiguous ascending run of
   sequence numbers: [first_seq .. first_seq + Vec.length records - 1]
   ([first_seq] is meaningless while the file is empty and is reset by the
   first append). Non-empty files' runs are disjoint and descend with age,
   which makes [records_from] a per-file index computation instead of a
   full-trail filter. *)
type audit_file = {
  file_number : int;
  mutable first_seq : int;
  records : Audit_record.t Vec.t; (* ascending *)
}

(* Dependency logging: one history entry per data write, ascending by
   sequence; the top of a key's stack is that key's last writer. An edge is
   recorded when a write lands on a key whose last writer is a different
   transaction; [edge_seq] is the dependent (newer) record's sequence, so
   the edge Vec ascends with the trail and crash/purge maintenance is the
   same truncate/drop-front shape as the record files. *)
type dep_entry = { dep_seq : int; dep_tx : Transid.t }

type dep_edge = { edge_seq : int; from_tx : Transid.t; to_tx : Transid.t }

type t = {
  volume : Volume.t;
  daemon : Force_daemon.t;
  trail_name : string;
  records_per_file : int;
  mutable files : audit_file list; (* newest first *)
  tx_index : Audit_record.t Vec.t Transid.Tbl.t;
      (* transid -> its records, ascending — the backout path *)
  dep_last : (string * string * string, dep_entry Vec.t) Hashtbl.t;
      (* (volume, file, key) -> writer history, ascending — the
         dependency-logging hook ROLLFORWARD's chain partitioning reads *)
  dep_edges : dep_edge Vec.t; (* ascending by edge_seq *)
  mutable next_seq : int;
  mutable forced_hwm : int; (* highest sequence on disc *)
  mutable crash_epoch : int;
      (* bumped by [crash]: a force that was in flight across a crash must
         not advance the high-water mark — the records it meant to cover
         were dropped with the volatile tail. *)
  mutable bytes : int; (* running [total_bytes] *)
}

let fresh_file file_number = { file_number; first_seq = 0; records = Vec.create () }

let create volume ~name ?(records_per_file = 512) ?(force_window = 0) () =
  if records_per_file < 1 then
    invalid_arg "Audit_trail.create: records_per_file must be positive";
  {
    volume;
    daemon = Force_daemon.create ~window:force_window volume;
    trail_name = name;
    records_per_file;
    files = [ fresh_file 0 ];
    tx_index = Transid.Tbl.create 64;
    dep_last = Hashtbl.create 256;
    dep_edges = Vec.create ();
    next_seq = 0;
    forced_hwm = -1;
    crash_epoch = 0;
    bytes = 0;
  }

let name t = t.trail_name

let current_file t =
  match t.files with
  | file :: _ -> file
  | [] -> assert false

let index_for t transid =
  match Transid.Tbl.find_opt t.tx_index transid with
  | Some vec -> vec
  | None ->
      let vec = Vec.create () in
      Transid.Tbl.replace t.tx_index transid vec;
      vec

(* Commit markers are excluded from dependency tracking: every fast-path
   commit writes the same ($TMF, $COMMIT, "") sentinel, so tracking it
   would chain every fast-path transaction into one component and erase the
   parallelism the index exists to expose. Markers carry no data image —
   they order against nothing. *)
let track_dependency t ~transid ~sequence image =
  if not (Audit_record.is_commit_marker image) then begin
    let key =
      (image.Audit_record.volume, image.Audit_record.file, image.Audit_record.key)
    in
    let history =
      match Hashtbl.find_opt t.dep_last key with
      | Some history -> history
      | None ->
          let history = Vec.create () in
          Hashtbl.replace t.dep_last key history;
          history
    in
    (match Vec.last history with
    | Some previous when not (Transid.equal previous.dep_tx transid) ->
        Vec.push t.dep_edges
          { edge_seq = sequence; from_tx = previous.dep_tx; to_tx = transid }
    | Some _ | None -> ());
    Vec.push history { dep_seq = sequence; dep_tx = transid }
  end

let append t ~transid image =
  let sequence = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  let record = { Audit_record.sequence; transid; image } in
  let file = current_file t in
  if Vec.is_empty file.records then file.first_seq <- sequence;
  Vec.push file.records record;
  Vec.push (index_for t transid) record;
  track_dependency t ~transid ~sequence image;
  t.bytes <- t.bytes + Audit_record.size_bytes record;
  if Vec.length file.records >= t.records_per_file then
    t.files <- fresh_file (file.file_number + 1) :: t.files;
  sequence

let force t =
  if t.forced_hwm < t.next_seq - 1 then begin
    (* Group commit: concurrent forcers share one physical write. *)
    let epoch = t.crash_epoch in
    let target = t.next_seq - 1 in
    Force_daemon.force t.daemon;
    if t.crash_epoch = epoch then t.forced_hwm <- max t.forced_hwm target
  end

let forced_up_to t = t.forced_hwm

let next_sequence t = t.next_seq

let records_for t ~transid =
  match Transid.Tbl.find_opt t.tx_index transid with
  | Some vec -> Vec.to_list vec
  | None -> []

let record_count_for t ~transid =
  match Transid.Tbl.find_opt t.tx_index transid with
  | Some vec -> Vec.length vec
  | None -> 0

let records_from t ~sequence =
  (* Suffix slice per file: each file's run is contiguous, so the matching
     window is an index range, not a filter. Files oldest first keeps the
     result ascending. *)
  List.concat_map
    (fun file ->
      let count = Vec.length file.records in
      if count = 0 then []
      else begin
        let lo_seq = max file.first_seq sequence in
        let hi_seq = min (file.first_seq + count - 1) t.forced_hwm in
        if lo_seq > hi_seq then []
        else
          Vec.sub_list file.records ~lo:(lo_seq - file.first_seq)
            ~hi:(hi_seq - file.first_seq)
      end)
    (List.rev t.files)

let unforced_records t =
  (* The volatile tail: appended but not yet on oxide. A crash loses these,
     so an archive taken "now" must carry their images as loser candidates —
     the writes they describe are visible in a fuzzy dump, but the records
     themselves will not survive to drive the undo pass. *)
  List.concat_map
    (fun file ->
      let count = Vec.length file.records in
      if count = 0 then []
      else begin
        let lo_seq = max file.first_seq (t.forced_hwm + 1) in
        let hi_seq = file.first_seq + count - 1 in
        if lo_seq > hi_seq then []
        else
          Vec.sub_list file.records ~lo:(lo_seq - file.first_seq)
            ~hi:(hi_seq - file.first_seq)
      end)
    (List.rev t.files)

(* Remove one record from the TAIL of its transaction's index entry —
   valid whenever the removed records are, globally, the newest ones (the
   crash path). *)
let unindex_newest t record =
  let transid = record.Audit_record.transid in
  match Transid.Tbl.find_opt t.tx_index transid with
  | None -> ()
  | Some vec ->
      ignore (Vec.pop vec);
      if Vec.is_empty vec then Transid.Tbl.remove t.tx_index transid

let crash t =
  (* Drop every record above the forced high-water mark. The unforced tail
     is, by construction, the newest suffix of each file — truncate rather
     than filter, and peel the same records off the transid index tails. *)
  List.iter
    (fun file ->
      let count = Vec.length file.records in
      if count > 0 then begin
        let keep =
          if file.first_seq > t.forced_hwm then 0
          else min count (t.forced_hwm - file.first_seq + 1)
        in
        for i = keep to count - 1 do
          let record = Vec.get file.records i in
          t.bytes <- t.bytes - Audit_record.size_bytes record;
          unindex_newest t record
        done;
        Vec.truncate file.records keep
      end)
    t.files;
  (* The dependency index loses the same volatile tail: writer-history
     entries are pushed in sequence order, so the dead ones are each
     stack's newest suffix, and the edge Vec's dead suffix is everything
     above the high-water mark. *)
  let emptied = ref [] in
  Hashtbl.iter
    (fun key history ->
      let rec trim () =
        match Vec.last history with
        | Some entry when entry.dep_seq > t.forced_hwm ->
            ignore (Vec.pop history);
            trim ()
        | Some _ | None -> ()
      in
      trim ();
      if Vec.is_empty history then emptied := key :: !emptied)
    t.dep_last;
  List.iter (Hashtbl.remove t.dep_last) !emptied;
  let rec trim_edges () =
    match Vec.last t.dep_edges with
    | Some edge when edge.edge_seq > t.forced_hwm ->
        ignore (Vec.pop t.dep_edges);
        trim_edges ()
    | Some _ | None -> ()
  in
  trim_edges ();
  t.next_seq <- t.forced_hwm + 1;
  t.crash_epoch <- t.crash_epoch + 1

let file_count t = List.length t.files

let purge_files_before t ~sequence =
  let keep, purge =
    List.partition
      (fun file ->
        match Vec.last file.records with
        | None -> true (* current, empty *)
        | Some newest -> newest.Audit_record.sequence >= sequence)
      t.files
  in
  t.files <- (if keep = [] then [ fresh_file 0 ] else keep);
  (* Purged files are strictly the oldest: every record they hold is older
     than every kept record, so per transaction they are a prefix of its
     index entry — count them and drop each entry's front once. *)
  let purged_per_tx = Transid.Tbl.create 16 in
  List.iter
    (fun file ->
      Vec.iter
        (fun record ->
          t.bytes <- t.bytes - Audit_record.size_bytes record;
          let transid = record.Audit_record.transid in
          let purged = Transid.Tbl.find_opt purged_per_tx transid in
          Transid.Tbl.replace purged_per_tx transid
            (1 + Option.value ~default:0 purged))
        file.records)
    purge;
  Transid.Tbl.iter
    (fun transid count ->
      match Transid.Tbl.find_opt t.tx_index transid with
      | None -> ()
      | Some vec ->
          Vec.drop_front vec count;
          if Vec.is_empty vec then Transid.Tbl.remove t.tx_index transid)
    purged_per_tx;
  (* Dependency entries below the oldest surviving record describe purged
     history; drop each stack's (and the edge Vec's) dead prefix. An edge
     whose [from_tx] has itself been purged may survive if its dependent
     record did — harmless: chain partitioning just merges through the
     absent endpoint (conservative, never wrong). *)
  let floor =
    List.fold_left
      (fun acc file ->
        if Vec.is_empty file.records then acc else min acc file.first_seq)
      t.next_seq t.files
  in
  let dead_prefix length get bound =
    let rec count i = if i < length && get i < bound then count (i + 1) else i in
    count 0
  in
  let emptied = ref [] in
  Hashtbl.iter
    (fun key history ->
      let drop =
        dead_prefix (Vec.length history)
          (fun i -> (Vec.get history i).dep_seq)
          floor
      in
      Vec.drop_front history drop;
      if Vec.is_empty history then emptied := key :: !emptied)
    t.dep_last;
  List.iter (Hashtbl.remove t.dep_last) !emptied;
  Vec.drop_front t.dep_edges
    (dead_prefix (Vec.length t.dep_edges)
       (fun i -> (Vec.get t.dep_edges i).edge_seq)
       floor);
  List.length purge

let total_bytes t = t.bytes

let dependency_edges t =
  let edges = ref [] in
  Vec.iter
    (fun edge ->
      if edge.edge_seq <= t.forced_hwm then
        edges := (edge.from_tx, edge.to_tx) :: !edges)
    t.dep_edges;
  List.rev !edges

let dependency_edge_count t = Vec.length t.dep_edges
