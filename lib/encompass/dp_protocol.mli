(** The DISCPROCESS request/reply protocol.

    Every data-base access travels as one of these messages. [op_id] is a
    network-unique number for the *logical* operation: a requester retrying
    after a path failure reuses it, and the DISCPROCESS's reply cache turns
    the retry into a replay of the original answer instead of a second
    execution. [transid] is the current process transid the File System
    appended ([None] for non-transactional access to unaudited files). *)

type op_meta = {
  op_id : int;
  transid : Tandem_sim.Transid.t option;
  lock_timeout : Tandem_sim.Sim_time.span;
}

type error =
  | Lock_timeout
  | Duplicate
  | Not_found
  | Tx_rejected  (** Transaction not in a state that may do work here. *)
  | Volume_down
  | Security_violation
  | Bad_request of string

val pp_error : Format.formatter -> error -> unit

type Tandem_os.Message.payload +=
  | Dp_read of { op : op_meta; file : string; key : string; lock : bool }
  | Dp_insert of { op : op_meta; file : string; key : string; payload : string }
  | Dp_update of { op : op_meta; file : string; key : string; payload : string }
  | Dp_delete of { op : op_meta; file : string; key : string }
  | Dp_append of { op : op_meta; file : string; payload : string }
  | Dp_next of { op : op_meta; file : string; after : string; inclusive : bool }
  | Dp_lock_file of { op : op_meta; file : string }
  | Dp_lookup_index of {
      op : op_meta;
      file : string;
      index : string;
      alternate : string;
    }
  | Dp_flush_audit of Tandem_sim.Transid.t
  | Dp_release of Tandem_sim.Transid.t
  | Dp_undo of Tandem_audit.Audit_record.image
  | Dp_ok  (** undo/lock acknowledgements *)
  | Dp_flushed of int  (** flush acknowledgement: number of images shipped *)
  | Dp_value of string option  (** read result *)
  | Dp_done of { key : string }  (** mutation result (key echoes appends) *)
  | Dp_pair of (string * string) option
  | Dp_keys of string list  (** next-record result *)
  | Dp_error of error
