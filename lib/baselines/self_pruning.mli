(** Backoff-based self-pruning (neighbor-coverage scheme).

    Section 3 of the paper describes this alternative to piggybacking for
    reducing transmission redundancy: "When a node receives a broadcast
    packet, if it can back-off a short period of time before it relays
    the packet, it may receive more copies of the same packet from its
    other neighbors.  If all of its neighbors can be covered by these
    already received broadcast copies, it can resign its role of
    re-broadcast operation."  This is Lim & Kim's self-pruning / the
    neighbor-coverage variant of the broadcast-storm counter schemes.

    Each node draws a random backoff of 1..[window] time units at its
    first copy; while waiting it records the senders of every copy it
    hears; at expiry it rebroadcasts unless its whole neighborhood lies
    in the union of the heard senders' closed neighborhoods.

    The trade-off the paper points out is visible in the results: fewer
    forwards than flooding, but completion times stretched by the
    backoff. *)

val broadcast :
  ?window:int ->
  rng:Manet_rng.Rng.t ->
  Manet_graph.Graph.t ->
  source:int ->
  Manet_broadcast.Result.t
(** [window] defaults to 4 time units.
    @raise Invalid_argument if [window < 1] or the source is out of
    range. *)

val broadcast_traced :
  ?window:int ->
  rng:Manet_rng.Rng.t ->
  Manet_graph.Graph.t ->
  source:int ->
  Manet_broadcast.Result.t * (int * int) list
(** Like {!broadcast}, additionally returning the transmission timeline
    as [(time, node)] pairs in transmission order. *)

val protocol : Manet_broadcast.Protocol.t
(** [self-pruning] in the protocol registry, on the shared backoff loop
    ({!Manet_broadcast.Protocol.run_backoff}).  Backoffs are drawn from
    the environment's rng.  Under loss a node only counts the copies it
    actually heard, so it forwards whenever the surviving copies leave
    part of its neighborhood uncovered; a node that fails before its
    timer expires stays silent. *)
