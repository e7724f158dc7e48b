(** Generic broadcast-propagation engine.

    Models the shared assumptions of every protocol in the paper: wireless
    local broadcast (one transmission reaches all 1-hop neighbors one time
    unit later), each node reacts only to its {e first} copy of the
    packet, and collisions are handled below the network layer
    (Section 4: "We assume that all the transmission collision and
    contention are taken care of at the underground physical and MAC
    layers").

    A protocol is a [decide] callback: offered each received copy of the
    packet (with the payload that copy carries), the node either stays
    silent ([None]) or transmits a payload of its own ([Some p]).  A node
    transmits at most once, and once it has transmitted it is never asked
    again.  Offering {e every} copy until transmission matters for
    source-dependent protocols: a node's forward-node designation can
    arrive in a later copy than its first.  The SI-CDS broadcast, the
    paper's dynamic backbone, flooding, dominant pruning, PDP and MPR are
    all instances.

    Determinism: receptions are processed in (time, receiver, sender)
    order, so when several copies arrive in the same time unit the
    receiver sees the one from the smallest sender id.  Because every
    transmission arrives exactly one time unit later, {!run_core} needs
    no event queue: it walks the broadcast one time level at a time
    (see {!run_core}). *)

module Arena : sig
  type t
  (** Reusable engine scratch: generation-tagged delivered/transmitted
      maps, {!run_core}'s per-node transmit times and payload slots and
      its frontier buffer, the event heap of {!Scratch} and
      {!run_backoff}, and the transmission timeline.  Reusing an arena
      across broadcasts makes the engine's steady-state allocation O(1)
      (only the caller-owned {!Result.t} and timeline are built per
      run) and never changes results — runs are bit-identical whether
      the arena is fresh, reused, or absent.  A run that returns leaves
      no payload behind: {!run_core} scrubs the slots it wrote.

      Ownership: an arena is single-threaded state.  One arena must not
      be shared between concurrently running domains; keep one arena per
      worker (that is what {!get} provides).  Reentrancy is safe: a
      broadcast started from inside another broadcast's [decide] finds
      the arena mid-run and silently falls back to a private fresh
      one.  Every per-run buffer lives in the arena, so the nested run
      cannot touch the outer run's transmit times or payloads. *)

  val create : unit -> t
  (** A fresh, empty arena.  Buffers grow to fit the largest graph it
      serves and are retained between runs. *)

  val get : unit -> t
  (** The calling domain's own arena (domain-local storage) — the
      default scratch for every engine run, so per-domain reuse needs no
      explicit threading. *)

  val reserve : t -> n:int -> unit
  (** Pre-size the node-indexed buffers for an [n]-node graph.  Runs do
      this on demand; a long-lived serving loop calls it once up front
      so that no broadcast of the stream ever grows the arena mid-run.
      Idempotent; never shrinks. *)
end

(** The arena opened up for protocols with bespoke event loops (the
    dynamic backbone's designation events, which {!run_core}'s
    decide-callback shape cannot express): the same generation-tagged
    delivered/transmitted maps, an unboxed (time, node, sender) event
    heap (designations arrive [hops] time units after they are sent,
    so events do not come one level at a time), and the arena's
    {!Manet_graph.Flatset.pool} for the loop's transient coverage sets.
    Payloads are restricted to immediate ints, so a bespoke loop pushes
    and pops events without allocating.  Event processing order is
    {!run_core}'s: (time, node, sender) lexicographic; events carrying
    {e equal} keys (possible when a designation and a data copy arrive
    together) pop in unspecified relative order, so loops must keep the
    handling of equal-key events commutative. *)
module Scratch : sig
  type t

  val with_scratch : ?arena:Arena.t -> n:int -> (t -> 'a) -> 'a
  (** Acquire scratch for one broadcast over an [n]-node graph through
      the same function as {!run_core} — busy-flag acquisition with a
      silent fresh-arena fallback (default: the calling domain's
      arena), one generation bump resetting the node maps, heap and
      trace — and also reset the flatset pool.  The scratch value must
      not escape the callback. *)

  val pool : t -> Manet_graph.Flatset.pool
  (** The arena's flatset pool, reset at acquisition: slices created
      here live exactly as long as this broadcast. *)

  val mark_delivered : t -> int -> bool
  (** Marks the node delivered; [true] iff it was not already. *)

  val transmitted : t -> int -> bool
  val mark_transmitted : t -> int -> unit

  val trace : t -> time:int -> node:int -> unit
  (** Append to the transmission timeline (call once per transmission,
      in processing order). *)

  val push : t -> time:int -> node:int -> sender:int -> payload:int -> unit
  (** Schedule an event; [payload] must fit the int together with the
      caller's own tag bits (it is stored as an immediate). *)

  val heap_empty : t -> bool

  val min_time : t -> int
  (** Field reads of the pending minimum event, valid while
      [not (heap_empty t)]; field-wise access keeps the pop loop free of
      tuple allocation. *)

  val min_node : t -> int
  val min_sender : t -> int
  val min_payload : t -> int

  val drop_min : t -> unit
  (** Remove the minimum event (after reading its fields). *)

  val finish : t -> source:int -> completion:int -> Result.t * (int * int) list
  (** The caller-owned result and timeline, materialized from the
      generation tags — the same epilogue {!run_core} uses. *)
end

val run :
  Manet_graph.Graph.t ->
  source:int ->
  initial:'a ->
  decide:(node:int -> from:int -> payload:'a -> 'a option) ->
  Result.t
(** [run g ~source ~initial ~decide]: the source transmits [initial] at
    time 0 (the source always transmits and is counted as a forwarder;
    [decide] is not called for it).  Each transmission by [v] at time [t]
    delivers to every neighbor at [t + 1]; deliveries invoke [decide]
    until the node transmits, and [Some p] schedules the node's own
    transmission at its delivery time.  Runs until no transmission is in
    flight.
    @raise Invalid_argument if [source] is out of range. *)

val run_traced :
  Manet_graph.Graph.t ->
  source:int ->
  initial:'a ->
  decide:(node:int -> from:int -> payload:'a -> 'a option) ->
  Result.t * (int * int) list
(** Like {!run}, additionally returning the transmission schedule as
    [(time, node)] pairs in transmission order — a timeline for
    inspection and visualization. *)

val run_core :
  ?drop:(unit -> bool) ->
  ?down:(time:int -> node:int -> bool) ->
  ?arena:Arena.t ->
  Manet_graph.Graph.t ->
  source:int ->
  initial:'a ->
  decide:(node:int -> from:int -> payload:'a -> 'a option) ->
  Result.t * (int * int) list
(** The shared event loop behind {!run}, {!run_traced} and {!Lossy.run}.
    It is a level walk, not a queue: the transmitters of time [t] are
    the trace entries of that level, already in ascending order; the
    candidate receivers of [t + 1] are the union of their rows, sorted
    ascending; and each candidate's sorted row, filtered to the
    neighbours that transmitted at [t], lists its receptions in sender
    order.  That is the (time, receiver, sender) order exactly, with
    no per-reception push or pop.  {!Scratch} and {!run_backoff} keep
    the arena's event heap, since their events (designations after
    [hops] units, timer expiries) do not arrive one level at a time.

    [drop] is consulted once per reception event, in (time, receiver,
    sender) processing order; a [true] verdict discards that reception
    before the node sees it.  Defaults to never dropping, which is
    exactly {!run_traced}.  {!Lossy} and [Protocol] pass a closure that
    draws from their generator, so one code path serves the perfect and
    the failure-injection engines.

    [down ~time ~node] injects {e node} failures on the same loop: a
    node down at a reception's delivery time neither receives nor
    (since receive and forward share the event) transmits, so a kill
    silences the node for as long as the predicate holds.  Evaluated
    after [drop], so enabling failures never perturbs the loss
    stream.  Defaults to no node ever being down.  The source's initial
    time-0 transmission is unconditional — failing the source is
    indistinguishable from not broadcasting.

    [arena] supplies the run's scratch storage, reset by a generation
    bump instead of reallocation; it defaults to the calling domain's
    arena ({!Arena.get}), so repeated broadcasts on one domain already
    reuse storage.  Results and timelines are bit-identical for any
    arena state — see {!Arena}. *)

val loss_drop : Manet_rng.Rng.t -> loss:float -> unit -> bool
(** [loss_drop rng ~loss] is the [drop] closure of per-reception
    Bernoulli loss: each call draws once from [rng] and answers [true]
    with probability [loss], bit-identically to
    [Rng.float rng 1. < loss] but without boxing a float.  At [loss = 0.]
    it never draws, so a zero-loss run is bit-identical to a perfect
    one.  The caller validates [loss]. *)

val silent : int
(** The [expire] verdict of a node that stays silent. *)

val run_backoff :
  ?drop:(unit -> bool) ->
  ?down:(time:int -> node:int -> bool) ->
  ?arena:Arena.t ->
  Manet_graph.Graph.t ->
  source:int ->
  initial:int ->
  backoff:int array ->
  hear:(node:int -> from:int -> payload:int -> unit) ->
  expire:(node:int -> int) ->
  Result.t * (int * int) list
(** The event loop of the backoff schemes (self-pruning, counter-based,
    passive clustering), where a node decides at a local timer, not at
    a reception.  The source transmits [initial] at time 0.  Every copy
    that survives [drop] and [down] is passed to [hear]; a node's first
    such copy, at time [t], also delivers it and arms its timer for
    [t + backoff.(node)] (non-negative).  At expiry the node transmits
    [expire ~node] unless that is {!silent} or [down] then holds for it:
    a node that failed after hearing the packet stays silent.

    Events run in (time, kind, node, sender) order, receptions before
    expiries, so copies arriving as a timer fires still count.  [drop]
    is consulted once per reception in that order, [down] after it, and
    arena handling is {!run_core}'s.  Payloads are immediate ints, so
    the loop allocates nothing per event.
    @raise Invalid_argument if [source] is out of range. *)
