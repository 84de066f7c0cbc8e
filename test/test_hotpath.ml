(* Equivalence properties for the indexed hot paths.

   The audit trail and the lock table were re-backed by indexes (per-transid
   record vectors, per-owner lock sets, per-file waiter queues) purely for
   complexity; observable behaviour must not move. Each property drives the
   real structure and a naive specification model through the same random
   operation sequence and compares every observation. A third property pins
   the parallel phase-one default: concurrent prepares must yield the very
   dispositions serial prepares do. *)

open Tandem_sim
open Tandem_audit
open Tandem_encompass

(* ------------------------------------------------------------------ *)
(* Audit trail vs naive list-backed model *)

module Trail_model = struct
  type t = {
    mutable files : Audit_record.t list list; (* oldest first, ascending *)
    mutable next_seq : int;
    mutable forced : int;
    records_per_file : int;
  }

  let create ~records_per_file =
    { files = [ [] ]; next_seq = 0; forced = -1; records_per_file }

  let rec replace_last files file =
    match files with
    | [] -> assert false
    | [ _ ] -> [ file ]
    | f :: rest -> f :: replace_last rest file

  let current t = List.nth t.files (List.length t.files - 1)

  let append t ~transid image =
    let sequence = t.next_seq in
    t.next_seq <- t.next_seq + 1;
    let record = { Audit_record.sequence; transid; image } in
    let file = current t @ [ record ] in
    t.files <- replace_last t.files file;
    if List.length file >= t.records_per_file then t.files <- t.files @ [ [] ];
    sequence

  let all t = List.concat t.files

  let force t = t.forced <- t.next_seq - 1

  let crash t =
    t.files <-
      List.map
        (List.filter (fun r -> r.Audit_record.sequence <= t.forced))
        t.files;
    t.next_seq <- t.forced + 1

  let purge t ~sequence =
    let keep =
      List.filter
        (fun file ->
          match List.rev file with
          | [] -> true
          | newest :: _ -> newest.Audit_record.sequence >= sequence)
        t.files
    in
    t.files <- (if keep = [] then [ [] ] else keep)

  let records_for t ~transid =
    List.filter (fun r -> Transid.equal r.Audit_record.transid transid) (all t)

  let records_from t ~sequence =
    List.filter
      (fun r ->
        r.Audit_record.sequence >= sequence
        && r.Audit_record.sequence <= t.forced)
      (all t)

  let total_bytes t =
    List.fold_left (fun acc r -> acc + Audit_record.size_bytes r) 0 (all t)
end

type trail_op =
  | Append of int (* transid pool index *)
  | Force
  | Crash
  | Purge of int (* scaled into the live sequence range *)

let trail_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun i -> Append i) (int_bound 3));
        (2, return Force);
        (1, return Crash);
        (1, map (fun s -> Purge s) (int_bound 100));
      ])

let trail_op_print = function
  | Append i -> Printf.sprintf "append t%d" i
  | Force -> "force"
  | Crash -> "crash"
  | Purge s -> Printf.sprintf "purge %d%%" s

let transid_pool =
  Array.map
    (fun (home, seq) -> Transid.make ~home ~cpu:0 ~seq)
    [| (1, 0); (1, 1); (2, 0); (2, 1) |]

let record_eq a b = a = b (* immutable scalars throughout *)

let trail_agrees trail model =
  let open Audit_trail in
  next_sequence trail = model.Trail_model.next_seq
  && forced_up_to trail = model.Trail_model.forced
  && total_bytes trail = Trail_model.total_bytes model
  && Array.for_all
       (fun transid ->
         let indexed = records_for trail ~transid in
         let naive = Trail_model.records_for model ~transid in
         record_count_for trail ~transid = List.length naive
         && List.length indexed = List.length naive
         && List.for_all2 record_eq indexed naive)
       transid_pool
  && List.for_all
       (fun sequence ->
         let indexed = records_from trail ~sequence in
         let naive = Trail_model.records_from model ~sequence in
         List.length indexed = List.length naive
         && List.for_all2 record_eq indexed naive)
       [ 0; 3; model.Trail_model.forced; model.Trail_model.next_seq - 2 ]

let prop_trail_matches_model =
  QCheck.Test.make
    ~name:"indexed audit trail = naive list model (append/force/crash/purge)"
    ~count:80
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map trail_op_print ops))
       QCheck.Gen.(list_size (1 -- 40) trail_op_gen))
    (fun ops ->
      let engine = Engine.create () in
      let metrics = Metrics.create () in
      let volume =
        Tandem_disk.Volume.create engine ~metrics ~name:"$AVOL"
          ~access_time:(Sim_time.milliseconds 5)
      in
      let trail =
        Audit_trail.create volume ~name:"$AUDIT" ~records_per_file:3 ()
      in
      let model = Trail_model.create ~records_per_file:3 in
      let ok = ref true in
      (* One fiber applies each op to both in lockstep ([force] suspends on
         the daemon, so the sequence needs the engine underneath it). *)
      ignore
        (Fiber.spawn (fun () ->
             List.iter
               (fun op ->
                 (match op with
                 | Append i ->
                     let transid = transid_pool.(i) in
                     let image =
                       {
                         Audit_record.volume = "$DATA";
                         file = "F";
                         key = string_of_int model.Trail_model.next_seq;
                         before = None;
                         after = Some "x";
                       }
                     in
                     let s1 = Audit_trail.append trail ~transid image in
                     let s2 = Trail_model.append model ~transid image in
                     if s1 <> s2 then ok := false
                 | Force ->
                     Audit_trail.force trail;
                     Trail_model.force model
                 | Crash ->
                     Audit_trail.crash trail;
                     Trail_model.crash model
                 | Purge percent ->
                     let sequence =
                       model.Trail_model.next_seq * percent / 100
                     in
                     ignore (Audit_trail.purge_files_before trail ~sequence);
                     Trail_model.purge model ~sequence);
                 if not (trail_agrees trail model) then ok := false)
               ops));
      Engine.run engine;
      !ok)

(* ------------------------------------------------------------------ *)
(* Lock table vs naive model (non-blocking paths) *)

module Lock_model = struct
  type t = {
    mutable file_owners : (string * Transid.t) list; (* file -> owner *)
    mutable record_owners : ((string * string) * Transid.t) list;
        (* (file, key) -> owner *)
  }

  let create () = { file_owners = []; record_owners = [] }

  let grantable t ~owner resource =
    match resource with
    | Tandem_lock.Lock_table.Record_lock { file; key } -> (
        match List.assoc_opt file t.file_owners with
        | Some file_owner when file_owner <> owner -> false
        | _ -> (
            match List.assoc_opt (file, key) t.record_owners with
            | Some record_owner -> record_owner = owner
            | None -> true))
    | Tandem_lock.Lock_table.File_lock file ->
        (match List.assoc_opt file t.file_owners with
        | Some file_owner -> file_owner = owner
        | None -> true)
        && not
             (List.exists
                (fun ((f, _), record_owner) -> f = file && record_owner <> owner)
                t.record_owners)

  let try_acquire t ~owner resource =
    grantable t ~owner resource
    && begin
         (match resource with
         | Tandem_lock.Lock_table.Record_lock { file; key } ->
             if not (List.mem_assoc (file, key) t.record_owners) then
               t.record_owners <- ((file, key), owner) :: t.record_owners
         | Tandem_lock.Lock_table.File_lock file ->
             t.file_owners <-
               (file, owner) :: List.remove_assoc file t.file_owners);
         true
       end

  let release_all t ~owner =
    t.file_owners <- List.filter (fun (_, o) -> o <> owner) t.file_owners;
    t.record_owners <- List.filter (fun (_, o) -> o <> owner) t.record_owners

  let locked_count t =
    List.length t.file_owners + List.length t.record_owners

  let holder t resource =
    match resource with
    | Tandem_lock.Lock_table.File_lock file ->
        List.assoc_opt file t.file_owners
    | Tandem_lock.Lock_table.Record_lock { file; key } -> (
        match List.assoc_opt (file, key) t.record_owners with
        | Some _ as direct -> direct
        | None -> List.assoc_opt file t.file_owners)

  let locks_of t ~owner =
    List.filter_map
      (fun (file, o) ->
        if o = owner then Some (Tandem_lock.Lock_table.File_lock file)
        else None)
      t.file_owners
    @ List.filter_map
        (fun ((file, key), o) ->
          if o = owner then
            Some (Tandem_lock.Lock_table.Record_lock { file; key })
          else None)
        t.record_owners
end

type lock_op =
  | Acquire of int * int * int (* owner, file, key; key 0 = file lock *)
  | Release of int

let lock_op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map3
            (fun o f k -> Acquire (o, f, k))
            (int_bound 3) (int_bound 2) (int_bound 4) );
        (2, map (fun o -> Release o) (int_bound 3));
      ])

let lock_op_print = function
  | Acquire (o, f, 0) -> Printf.sprintf "t%d file-locks F%d" o f
  | Acquire (o, f, k) -> Printf.sprintf "t%d locks F%d[k%d]" o f k
  | Release o -> Printf.sprintf "t%d releases" o

let render_resource resource =
  Format.asprintf "%a" Tandem_lock.Lock_table.pp_resource resource

let lock_table_agrees locks model =
  let open Tandem_lock.Lock_table in
  locked_count locks = Lock_model.locked_count model
  && waiting_count locks = 0
  && List.for_all
       (fun owner_index ->
         let owner = Transid.make ~home:1 ~cpu:0 ~seq:owner_index in
         List.sort compare
           (List.map render_resource (locks_of locks ~owner))
         = List.sort compare
             (List.map render_resource (Lock_model.locks_of model ~owner)))
       [ 0; 1; 2; 3 ]

let prop_lock_table_matches_model =
  QCheck.Test.make
    ~name:"indexed lock table = naive model (try_acquire/release_all)"
    ~count:120
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map lock_op_print ops))
       QCheck.Gen.(list_size (1 -- 50) lock_op_gen))
    (fun ops ->
      let engine = Engine.create () in
      let metrics = Metrics.create () in
      let locks =
        Tandem_lock.Lock_table.create engine ~metrics ~name:"$DATA"
      in
      let model = Lock_model.create () in
      List.for_all
        (fun op ->
          (match op with
          | Acquire (owner_index, file_index, key_index) ->
              let owner = Transid.make ~home:1 ~cpu:0 ~seq:owner_index in
              let file = Printf.sprintf "F%d" file_index in
              let resource =
                if key_index = 0 then Tandem_lock.Lock_table.File_lock file
                else
                  Tandem_lock.Lock_table.Record_lock
                    { file; key = Printf.sprintf "k%d" key_index }
              in
              Tandem_lock.Lock_table.try_acquire locks ~owner resource
              = Lock_model.try_acquire model ~owner resource
              && Tandem_lock.Lock_table.holder locks resource
                 = Lock_model.holder model resource
          | Release owner_index ->
              let owner = Transid.make ~home:1 ~cpu:0 ~seq:owner_index in
              Tandem_lock.Lock_table.release_all locks ~owner;
              Lock_model.release_all model ~owner;
              true)
          && lock_table_agrees locks model)
        ops)

(* ------------------------------------------------------------------ *)
(* Parallel phase one = serial phase one, disposition for disposition *)

let three_node_cluster ~parallel =
  let tmp_config =
    { Tmf.Tmp.default_config with parallel_prepare = parallel }
  in
  let cluster = Cluster.create ~seed:11 ~tmp_config () in
  ignore (Cluster.add_node cluster ~id:1 ~cpus:4);
  ignore (Cluster.add_node cluster ~id:2 ~cpus:4);
  ignore (Cluster.add_node cluster ~id:3 ~cpus:4);
  Cluster.link cluster 1 2;
  Cluster.link cluster 1 3;
  ignore
    (Cluster.add_volume cluster ~node:1 ~name:"$DATA1" ~primary_cpu:2
       ~backup_cpu:3 ());
  ignore
    (Cluster.add_volume cluster ~node:2 ~name:"$DATA2" ~primary_cpu:2
       ~backup_cpu:3 ());
  ignore
    (Cluster.add_volume cluster ~node:3 ~name:"$DATA3" ~primary_cpu:2
       ~backup_cpu:3 ());
  let spec =
    {
      Workload.accounts = 150;
      tellers = 10;
      branches = 5;
      initial_balance = 1_000;
      (* Accounts 0-49 on node 1, 50-99 on node 2, 100-149 on node 3. *)
      account_partitions = [ (1, "$DATA1"); (2, "$DATA2"); (3, "$DATA3") ];
      system_home = (1, "$DATA1");
    }
  in
  Workload.install_bank cluster spec;
  ignore (Workload.add_transfer_servers cluster ~node:1 ~count:2 ());
  let tcp =
    Cluster.add_tcp cluster ~node:1 ~name:"$TCP1" ~terminals:2
      ~program:Workload.transfer_program ()
  in
  (cluster, tcp)

(* Transfers whose two accounts straddle nodes 2 and 3: the home node
   prepares two children, so serial and concurrent phase one genuinely
   diverge in schedule. *)
let transfers =
  [
    (60, 110, 25);
    (115, 70, 40);
    (10, 130, 15);
    (80, 120, 30);
    (125, 65, 10);
  ]

let monitor_entries cluster node =
  Monitor_trail.entries
    (Tmf.node_state (Cluster.tmf cluster) node).Tmf.Tmf_state.monitor

let run_mode ~parallel =
  let cluster, tcp = three_node_cluster ~parallel in
  List.iter
    (fun (from_account, to_account, amount) ->
      Tcp.submit tcp ~terminal:0
        (Workload.transfer_input_between ~from_account ~to_account ~amount))
    transfers;
  Cluster.run cluster;
  let balances =
    List.map
      (fun account -> Workload.account_balance cluster ~account)
      [ 10; 60; 65; 70; 80; 110; 115; 120; 125; 130 ]
  in
  (Tcp.completed tcp, List.map (monitor_entries cluster) [ 1; 2; 3 ], balances)

let test_parallel_prepare_equivalence () =
  let committed_serial, monitors_serial, balances_serial =
    run_mode ~parallel:false
  in
  let committed_parallel, monitors_parallel, balances_parallel =
    run_mode ~parallel:true
  in
  Alcotest.(check int)
    "same completions" committed_serial committed_parallel;
  Alcotest.(check int)
    "every transfer completed" (List.length transfers) committed_parallel;
  List.iteri
    (fun i (serial, parallel) ->
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "node %d dispositions identical" (i + 1))
        (List.map
           (fun (transid, d) ->
             ( Transid.to_string transid,
               match d with
               | Monitor_trail.Committed -> "committed"
               | Monitor_trail.Aborted -> "aborted" ))
           serial)
        (List.map
           (fun (transid, d) ->
             ( Transid.to_string transid,
               match d with
               | Monitor_trail.Committed -> "committed"
               | Monitor_trail.Aborted -> "aborted" ))
           parallel))
    (List.combine monitors_serial monitors_parallel);
  Alcotest.(check (list (option int)))
    "balances identical" balances_serial balances_parallel

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "tandem_hotpath"
    [
      ( "audit index",
        qcheck [ prop_trail_matches_model ] );
      ( "lock index",
        qcheck [ prop_lock_table_matches_model ] );
      ( "parallel phase one",
        [
          Alcotest.test_case "dispositions identical to serial" `Quick
            test_parallel_prepare_equivalence;
        ] );
    ]
