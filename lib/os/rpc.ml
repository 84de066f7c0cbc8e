open Tandem_sim

type error = [ `Timeout | `No_such_name ]

let pp_error formatter = function
  | `Timeout -> Format.pp_print_string formatter "timeout"
  | `No_such_name -> Format.pp_print_string formatter "no such name"

let call net ~self ~dst ?timeout payload =
  let timeout =
    match timeout with
    | Some span -> span
    | None -> (Net.config net).Hw_config.rpc_timeout
  in
  let corr = Net.fresh_corr net in
  let message = Message.request ~src:(Process.pid self) ~dst ~corr payload in
  (* The reply/timeout race: the reply wins by cancelling the timer before
     the wake-up; the timeout wins by dropping the entry, so a late reply
     is discarded at the table. *)
  let wait = Process.await_reply self ~corr ~timeout in
  Net.send net message;
  Fiber.park ();
  Process.reply_of self ~corr wait

let call_name net ~self ~node ~name ?timeout ?retries payload =
  let config = Net.config net in
  let retries =
    match retries with
    | Some n -> n
    | None -> config.Hw_config.rpc_retries
  in
  Metrics.incr (Metrics.family_counter (Net.rpc_calls_family net) name);
  let rec attempt remaining =
    match Node.lookup_name (Net.node net node) name with
    | None ->
        if remaining > 0 then begin
          (* The name may be re-registered by a takeover in progress. *)
          Fiber.sleep (Net.engine net) config.Hw_config.net_retransmit;
          attempt (remaining - 1)
        end
        else Error `No_such_name
    | Some dst -> (
        match call net ~self ~dst ?timeout payload with
        | Ok _ as ok -> ok
        | Error `Timeout when remaining > 0 ->
            (* The timed-out attempt itself already waited one timeout: the
               retry departs at once. *)
            attempt (remaining - 1)
        | Error _ as err -> err)
  in
  attempt retries

let reply net ~self ~to_ payload =
  Net.send net (Message.reply_to to_ ~src:(Process.pid self) payload)
