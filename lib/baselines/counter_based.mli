(** The counter-based scheme of Ni et al. (MOBICOM'99) — the classic
    remedy from the broadcast storm paper that motivates Section 1.

    Each node backs off a random 1..[window] time units at its first
    copy and counts the duplicates it overhears; at expiry it
    rebroadcasts only if it heard fewer than [threshold] copies.  Unlike
    {!Self_pruning} it needs no neighborhood knowledge at all, but the
    counter is a heuristic: delivery is not guaranteed (high thresholds
    approach flooding, low thresholds can strand nodes), which the tests
    and the ext-baselines discussion quantify. *)

val broadcast :
  ?window:int ->
  ?threshold:int ->
  rng:Manet_rng.Rng.t ->
  Manet_graph.Graph.t ->
  source:int ->
  Manet_broadcast.Result.t
(** Defaults: [window = 4], [threshold = 3] (the paper's C = 3 sweet
    spot).  @raise Invalid_argument if [window < 1], [threshold < 1] or
    the source is out of range. *)

val broadcast_traced :
  ?window:int ->
  ?threshold:int ->
  rng:Manet_rng.Rng.t ->
  Manet_graph.Graph.t ->
  source:int ->
  Manet_broadcast.Result.t * (int * int) list
(** Like {!broadcast}, additionally returning the transmission timeline
    as [(time, node)] pairs in transmission order. *)

val protocol : Manet_broadcast.Protocol.t
(** [counter] in the protocol registry (defaults: window 4, threshold 3),
    on the shared backoff loop like [self-pruning]: under loss a node
    counts only the copies that reached it, so lost duplicates make it
    forward where a perfect MAC would have suppressed it. *)
