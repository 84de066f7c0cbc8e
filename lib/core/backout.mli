(** The BACKOUTPROCESS: a process-pair that backs transactions out using
    their before-images from the node's audit trails.

    Backout is a purely local affair — every audit image for records on this
    node is in a trail on this node, so no network communication is needed
    (the property the distributed-audit-trail design buys). Images are
    undone newest-first per trail, through the owning volume's
    DISCPROCESS. *)

val spawn :
  net:Tandem_os.Net.t ->
  state:Tmf_state.node_state ->
  primary_cpu:Tandem_os.Ids.cpu_id ->
  backup_cpu:Tandem_os.Ids.cpu_id ->
  unit

val request :
  Tandem_os.Net.t ->
  self:Tandem_os.Process.t ->
  node:Tandem_os.Ids.node_id ->
  Tandem_sim.Transid.t ->
  (int, string) result
(** Ask the node's BACKOUTPROCESS to back the transaction out; returns the
    number of images undone. *)
