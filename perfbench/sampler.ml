(* A SIGPROF statistical profiler that charges host CPU time to the
   simulator's layers.

   [ITIMER_PROF] fires every [period] seconds of process CPU time; the
   handler only captures the OCaml call stack. Classification happens after
   the profiled region: each sample is charged to the innermost frame whose
   source file lies under [lib/<layer>/] (so a [Hashtbl] call made by the
   lock table counts as lock time), or to [other] when no frame does
   (benchmark code, runtime, stdlib called from outside [lib/]). *)

let layers = [| "sim"; "os"; "disk"; "db"; "lock"; "audit"; "core"; "encompass"; "other" |]

let other = Array.length layers - 1

let period = 0.004

let max_frames = 96

let layer_of_file file =
  let prefix = "lib/" in
  let plen = String.length prefix in
  if String.length file > plen && String.sub file 0 plen = prefix then
    match String.index_from_opt file plen '/' with
    | None -> None
    | Some slash -> (
        let dir = String.sub file plen (slash - plen) in
        (* lib/chaos, lib/mfg and lib/baseline are not on these workloads'
           paths; were they sampled, they would count as [other]. *)
        match Array.find_index (String.equal dir) layers with
        | Some i when i <> other -> Some i
        | _ -> Some other)
  else None

let classify stack =
  match Printexc.backtrace_slots stack with
  | None -> other
  | Some slots ->
      let rec scan i =
        if i >= Array.length slots then other
        else
          match Printexc.Slot.location slots.(i) with
          | Some { Printexc.filename; _ } -> (
              match layer_of_file filename with
              | Some layer -> layer
              | None -> scan (i + 1))
          | None -> scan (i + 1)
      in
      scan 0

let stacks : Printexc.raw_backtrace list ref = ref []

(* Reference bursts interleaved with the run are not part of it. *)
let handler _ =
  if not !Reference.in_burst then
    stacks := Printexc.get_callstack max_frames :: !stacks

(* Run [f] with the profiler armed; return its result and the number of
   samples charged to each layer, indexed like [layers]. *)
let profile f =
  stacks := [];
  let previous = Sys.signal Sys.sigprof (Sys.Signal_handle handler) in
  let timer = { Unix.it_interval = period; it_value = period } in
  ignore (Unix.setitimer Unix.ITIMER_PROF timer);
  let disarm () =
    ignore
      (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.0; it_value = 0.0 });
    Sys.set_signal Sys.sigprof previous
  in
  let result = Fun.protect ~finally:disarm f in
  let counts = Array.make (Array.length layers) 0 in
  List.iter
    (fun stack ->
      let layer = classify stack in
      counts.(layer) <- counts.(layer) + 1)
    !stacks;
  stacks := [];
  (result, counts)
