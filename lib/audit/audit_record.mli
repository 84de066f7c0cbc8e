(** Audit records: before- and after-images of logical data-base record
    updates, tagged with the transaction identifier. *)

type image = {
  volume : string;  (** Volume holding the updated file partition. *)
  file : string;
  key : string;
  before : string option;  (** [None] for an insert. *)
  after : string option;  (** [None] for a delete. *)
}

type t = {
  sequence : int;  (** Position in its trail; assigned on append. *)
  transid : Tandem_sim.Transid.t;
  image : image;
}

val commit_marker_image : image
(** Sentinel image recording a single-node fast-path commit decision inside
    the data audit trail, so the decision's durability rides the data-log
    force instead of a separate monitor-trail force. Its volume ["$TMF"]
    never names a real volume, so redo/undo passes skip it structurally. *)

val is_commit_marker : image -> bool

val of_change : volume:string -> Tandem_db.File.change -> image
(** Build an image from a file-layer change record. *)

val undo_change : image -> Tandem_db.File.change
(** The file-layer change whose [apply_undo] reverses this image. *)

val redo_change : image -> Tandem_db.File.change

val size_bytes : t -> int

val pp : Format.formatter -> t -> unit
