module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset

let never_drop () = false

let never_down ~time:_ ~node:_ = false

let nil = Obj.repr 0

(* Reusable per-worker scratch for every broadcast loop.  The arena
   keeps all per-run buffers alive between runs so a sweep's
   per-broadcast engine allocations are O(1) steady state instead of
   O(n + receptions).

   The node maps are generation-tagged: [delivered.(v) = gen] means
   delivered in the current run, so reset is one counter bump.

   {!run_core} walks the broadcast one time level at a time.  A node
   that transmits records its time in [tx_time] and its payload in its
   own [payload] slot; the trace buffer lists each level's transmitters
   contiguously and in ascending order.  [frontier] collects a level's
   candidate receivers, deduplicated by stamping [seen] with a
   per-level [stamp] that only ever grows.  The payload slots are typed
   [Obj.t]: the engine is polymorphic in the payload, but within one run
   all slots hold the same type, and every written slot is scrubbed
   back to an immediate when the run returns so the arena never pins a
   finished run's payloads.

   The heap serves the loops whose events do not arrive one level at a
   time ({!Scratch}'s designations, {!run_backoff}'s timers).  It
   stores events as two unboxed int keys — [hi] is the time, [lo]
   packs [(node lsl shift) lor sender] — whose lexicographic (hi, lo)
   order is the (time, node, sender) processing order, and an int
   payload beside them. *)
module Arena = struct
  type t = {
    mutable cap : int;
    mutable gen : int;
    mutable delivered : int array;
    mutable transmitted : int array;
    mutable tx_time : int array;
    mutable payload : Obj.t array;
    mutable seen : int array;
    mutable stamp : int;
    mutable frontier : int array;
    mutable fwd : int array;  (** compaction buffer for the forward set *)
    mutable heap_hi : int array;
    mutable heap_lo : int array;
    mutable heap_pay : int array;
    mutable heap_len : int;
    mutable trace_time : int array;
    mutable trace_node : int array;
    mutable trace_len : int;
    pool : Manet_graph.Flatset.pool;
        (** scratch storage for the per-broadcast flat coverage sets of
            bespoke event loops (the dynamic backbone's pruning);
            generation-bumped alongside the node maps *)
    mutable busy : bool;
  }

  let create () =
    {
      cap = 0;
      gen = 0;
      delivered = [||];
      transmitted = [||];
      tx_time = [||];
      payload = [||];
      seen = [||];
      stamp = 0;
      frontier = [||];
      fwd = [||];
      heap_hi = [||];
      heap_lo = [||];
      heap_pay = [||];
      heap_len = 0;
      trace_time = [||];
      trace_node = [||];
      trace_len = 0;
      pool = Manet_graph.Flatset.create_pool ();
      busy = false;
    }

  let dls = Domain.DLS.new_key create
  let get () = Domain.DLS.get dls

  let reserve a ~n =
    if a.cap < n then begin
      a.delivered <- Array.make n 0;
      a.transmitted <- Array.make n 0;
      a.tx_time <- Array.make n 0;
      a.payload <- Array.make n nil;
      a.seen <- Array.make n 0;
      a.frontier <- Array.make n 0;
      a.fwd <- Array.make n 0;
      a.cap <- n
    end
end

let heap_grow (a : Arena.t) =
  let cap = Array.length a.heap_hi in
  let ncap = if cap = 0 then 256 else 2 * cap in
  let hi = Array.make ncap 0 and lo = Array.make ncap 0 and pay = Array.make ncap 0 in
  Array.blit a.heap_hi 0 hi 0 a.heap_len;
  Array.blit a.heap_lo 0 lo 0 a.heap_len;
  Array.blit a.heap_pay 0 pay 0 a.heap_len;
  a.heap_hi <- hi;
  a.heap_lo <- lo;
  a.heap_pay <- pay

(* Hole-based sift-up: the new element is written once, parents shift
   down along the way. *)
let heap_push (a : Arena.t) hi lo pay =
  if a.heap_len = Array.length a.heap_hi then heap_grow a;
  let h = a.heap_hi and l = a.heap_lo and p = a.heap_pay in
  let i = ref a.heap_len in
  a.heap_len <- a.heap_len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let ph = Array.unsafe_get h parent in
    if ph > hi || (ph = hi && Array.unsafe_get l parent > lo) then begin
      Array.unsafe_set h !i ph;
      Array.unsafe_set l !i (Array.unsafe_get l parent);
      Array.unsafe_set p !i (Array.unsafe_get p parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set h !i hi;
  Array.unsafe_set l !i lo;
  Array.unsafe_set p !i pay

(* Removes the minimum; the caller has already read the root. *)
let heap_pop_root (a : Arena.t) =
  let last = a.heap_len - 1 in
  a.heap_len <- last;
  let h = a.heap_hi and l = a.heap_lo and p = a.heap_pay in
  if last > 0 then begin
    let xh = Array.unsafe_get h last
    and xl = Array.unsafe_get l last
    and xp = Array.unsafe_get p last in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let c = ref ((2 * !i) + 1) in
      if !c >= last then continue := false
      else begin
        let c2 = !c + 1 in
        if c2 < last then begin
          let ch = Array.unsafe_get h !c and c2h = Array.unsafe_get h c2 in
          if c2h < ch || (c2h = ch && Array.unsafe_get l c2 < Array.unsafe_get l !c) then c := c2
        end;
        let ch = Array.unsafe_get h !c and cl = Array.unsafe_get l !c in
        if ch < xh || (ch = xh && cl < xl) then begin
          Array.unsafe_set h !i ch;
          Array.unsafe_set l !i cl;
          Array.unsafe_set p !i (Array.unsafe_get p !c);
          i := !c
        end
        else continue := false
      end
    done;
    Array.unsafe_set h !i xh;
    Array.unsafe_set l !i xl;
    Array.unsafe_set p !i xp
  end

let trace_push (a : Arena.t) time v =
  if a.trace_len = Array.length a.trace_time then begin
    let ncap = if a.trace_len = 0 then 256 else 2 * a.trace_len in
    let tt = Array.make ncap 0 and tn = Array.make ncap 0 in
    Array.blit a.trace_time 0 tt 0 a.trace_len;
    Array.blit a.trace_node 0 tn 0 a.trace_len;
    a.trace_time <- tt;
    a.trace_node <- tn
  end;
  a.trace_time.(a.trace_len) <- time;
  a.trace_node.(a.trace_len) <- v;
  a.trace_len <- a.trace_len + 1

let rec bits_for b n = if 1 lsl b >= n then b else bits_for (b + 1) n

(* Caller-owned result + timeline from the arena's generation tags and
   trace buffers — the common epilogue of [run_core] and every bespoke
   loop driven through [Scratch]. *)
let materialize (a : Arena.t) ~tick ~n ~source ~completion =
  let delivered = a.delivered in
  let delivered_out = Array.make n false in
  for v = 0 to n - 1 do
    if Array.unsafe_get delivered v = tick then Array.unsafe_set delivered_out v true
  done;
  let transmitted = a.transmitted in
  let fwd = a.fwd in
  let nfwd = ref 0 in
  for v = 0 to n - 1 do
    if Array.unsafe_get transmitted v = tick then begin
      Array.unsafe_set fwd !nfwd v;
      incr nfwd
    end
  done;
  let trace = ref [] in
  for k = a.trace_len - 1 downto 0 do
    trace := (a.trace_time.(k), a.trace_node.(k)) :: !trace
  done;
  ( {
      Result.source;
      forwarders = Nodeset.of_increasing fwd ~len:!nfwd;
      delivered = delivered_out;
      completion_time = completion;
    },
    !trace )

(* Scratch acquisition shared by every loop on the arena: [arena] — by
   default the calling domain's — or a private fresh arena when that one
   is already mid-run (a nested broadcast from inside a callback);
   either way the results are the same.  One generation bump resets the
   node maps, the heap and the trace. *)
let with_arena ?arena ~n f =
  let a =
    match arena with
    | Some a when not a.Arena.busy -> a
    | Some _ -> Arena.create ()
    | None ->
      let a = Arena.get () in
      if a.Arena.busy then Arena.create () else a
  in
  Arena.reserve a ~n;
  a.gen <- a.gen + 1;
  a.heap_len <- 0;
  a.trace_len <- 0;
  a.busy <- true;
  match f a with
  | r ->
    a.busy <- false;
    r
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    a.busy <- false;
    Printexc.raise_with_backtrace e bt

(* The arena, opened up for protocols with bespoke event loops (the
   dynamic backbone's designation events): the same busy-flag
   acquisition and generation bump as [run_core], and the arena's
   (time, node, sender) event heap, whose int payloads let a bespoke
   loop allocate nothing per event.  [with_scratch] also resets
   the arena's flatset pool, scoping every {!Manet_graph.Flatset.t} the
   loop creates to this one broadcast. *)
module Scratch = struct
  type t = { a : Arena.t; tick : int; shift : int; mask : int; n : int }

  let with_scratch ?arena ~n f =
    with_arena ?arena ~n @@ fun a ->
    Manet_graph.Flatset.reset a.pool;
    let shift = bits_for 1 n in
    f { a; tick = a.gen; shift; mask = (1 lsl shift) - 1; n }

  let pool s = s.a.Arena.pool

  (* Marks [v] delivered; [true] iff it was not already. *)
  let mark_delivered s v =
    if s.a.Arena.delivered.(v) = s.tick then false
    else begin
      s.a.Arena.delivered.(v) <- s.tick;
      true
    end

  let transmitted s v = s.a.Arena.transmitted.(v) = s.tick
  let mark_transmitted s v = s.a.Arena.transmitted.(v) <- s.tick
  let trace s ~time ~node = trace_push s.a time node

  let push s ~time ~node ~sender ~payload =
    heap_push s.a time ((node lsl s.shift) lor sender) payload

  let heap_empty s = s.a.Arena.heap_len = 0
  let min_time s = s.a.Arena.heap_hi.(0)
  let min_node s = s.a.Arena.heap_lo.(0) lsr s.shift
  let min_sender s = s.a.Arena.heap_lo.(0) land s.mask
  let min_payload s = s.a.Arena.heap_pay.(0)
  let drop_min s = heap_pop_root s.a
  let finish s ~source ~completion = materialize s.a ~tick:s.tick ~n:s.n ~source ~completion
end

(* The one event loop shared by every decide-style execution: the
   perfect engine ([drop] never fires), and the lossy engine ([drop]
   draws from its generator once per reception, in processing order).

   Every transmission reaches its neighbours exactly one time unit
   later, so the receptions of time [t + 1] are exactly the edges into
   the level-[t] transmitters.  The loop visits them in (time, receiver,
   sender) order without a queue: the level's candidate receivers (the
   union of its transmitters' rows) sorted ascending, and within each
   candidate's sorted row the neighbours that transmitted at [t]. *)
let run_core ?(drop = never_drop) ?(down = never_down) ?arena g ~source ~initial ~decide =
  let n = Graph.n g in
  if source < 0 || source >= n then invalid_arg "Engine.run: source out of range";
  with_arena ?arena ~n @@ fun a ->
  let tick = a.gen in
  let delivered = a.delivered and transmitted = a.transmitted in
  let tx_time = a.tx_time and payload = a.payload in
  let seen = a.seen and frontier = a.frontier in
  let off, nbr = Graph.csr g in
  let completion = ref 0 in
  let transmit time v p =
    Array.unsafe_set transmitted v tick;
    Array.unsafe_set tx_time v time;
    Array.unsafe_set payload v (Obj.repr p);
    trace_push a time v
  in
  Array.unsafe_set delivered source tick;
  transmit 0 source initial;
  let first = ref 0 and level = ref 0 in
  while !first < a.trace_len do
    let last = a.trace_len and sent = !level in
    let time = sent + 1 in
    (* The level's candidate receivers: the union of its transmitters'
       rows, deduplicated by stamp, in ascending order. *)
    a.stamp <- a.stamp + 1;
    let stamp = a.stamp and k = ref 0 in
    for j = !first to last - 1 do
      let w = Array.unsafe_get a.trace_node j in
      for i = Array.unsafe_get off w to Array.unsafe_get off (w + 1) - 1 do
        let u = Array.unsafe_get nbr i in
        if Array.unsafe_get seen u <> stamp then begin
          Array.unsafe_set seen u stamp;
          Array.unsafe_set frontier !k u;
          incr k
        end
      done
    done;
    Graph.sort_range frontier 0 !k;
    (* Their receptions, in (receiver, sender) order. *)
    for c = 0 to !k - 1 do
      let u = Array.unsafe_get frontier c in
      for i = Array.unsafe_get off u to Array.unsafe_get off (u + 1) - 1 do
        let w = Array.unsafe_get nbr i in
        (* A failed node neither receives nor (therefore) forwards; the
           [down] guard sits after [drop] so the loss stream is
           identical with and without failures. *)
        if
          Array.unsafe_get transmitted w = tick
          && Array.unsafe_get tx_time w = sent
          && (not (drop ()))
          && not (down ~time ~node:u)
        then begin
          if Array.unsafe_get delivered u <> tick then begin
            Array.unsafe_set delivered u tick;
            completion := time
          end;
          (* Every copy is offered to the node until it transmits: a
             forward designation can arrive in a later copy than the
             first, even within one time unit. *)
          if Array.unsafe_get transmitted u <> tick then begin
            match decide ~node:u ~from:w ~payload:(Obj.obj (Array.unsafe_get payload w)) with
            | Some p -> transmit time u p
            | None -> ()
          end
        end
      done
    done;
    first := last;
    level := time
  done;
  (* The arena must not pin this run's payloads. *)
  for j = 0 to a.trace_len - 1 do
    Array.unsafe_set payload (Array.unsafe_get a.trace_node j) nil
  done;
  materialize a ~tick ~n ~source ~completion:!completion

(* Per-reception Bernoulli loss on the unboxed draw: [bits53 rng <
   threshold] decides [float rng 1. < loss] on the same generator step
   without boxing a float per reception — [loss *. 2^53] is exact
   scaling by a power of two and the 53-bit draw is exactly
   representable, so ceil makes the integer comparison equivalent
   bit-for-bit.  Loss 0 never draws. *)
let loss_drop rng ~loss =
  let threshold = int_of_float (Float.ceil (loss *. 9007199254740992.)) in
  fun () -> threshold > 0 && Manet_rng.Rng.bits53 rng < threshold

let silent = -1

(* The backoff loop: the same arena, [drop] and [down] as [run_core],
   on the arena's event heap, since a node's own timer is one more
   event kind.  A
   reception at time [t] is keyed [2t] and an expiry [2t + 1] (with
   [sender = node]), so the heap's (key, node, sender) order is
   (time, receptions before expiries, node, sender).  Keys stay unique:
   a node transmits once and arms one timer. *)
let run_backoff ?(drop = never_drop) ?(down = never_down) ?arena g ~source ~initial ~backoff
    ~hear ~expire =
  let n = Graph.n g in
  if source < 0 || source >= n then invalid_arg "Engine.run_backoff: source out of range";
  with_arena ?arena ~n @@ fun a ->
  let tick = a.gen in
  let delivered = a.delivered in
  let off, nbr = Graph.csr g in
  let shift = bits_for 1 n in
  let mask = (1 lsl shift) - 1 in
  let completion = ref 0 in
  let transmit time v payload =
    Array.unsafe_set a.transmitted v tick;
    trace_push a time v;
    let key = 2 * (time + 1) in
    for i = Array.unsafe_get off v to Array.unsafe_get off (v + 1) - 1 do
      heap_push a key ((Array.unsafe_get nbr i lsl shift) lor v) payload
    done
  in
  Array.unsafe_set delivered source tick;
  transmit 0 source initial;
  while a.heap_len > 0 do
    let key = a.heap_hi.(0) and lo = a.heap_lo.(0) in
    let payload = a.heap_pay.(0) in
    heap_pop_root a;
    let time = key lsr 1 and node = lo lsr shift in
    if key land 1 = 0 then begin
      if not (drop ()) && not (down ~time ~node) then begin
        if Array.unsafe_get delivered node <> tick then begin
          Array.unsafe_set delivered node tick;
          completion := time;
          heap_push a ((2 * (time + backoff.(node))) + 1) ((node lsl shift) lor node) 0
        end;
        hear ~node ~from:(lo land mask) ~payload
      end
    end
    else if not (down ~time ~node) then begin
      (* An expiry: a node that failed since its first copy stays silent. *)
      let p = expire ~node in
      if p <> silent then transmit time node p
    end
  done;
  materialize a ~tick ~n ~source ~completion:!completion

let run_traced g ~source ~initial ~decide = run_core g ~source ~initial ~decide

let run g ~source ~initial ~decide = fst (run_traced g ~source ~initial ~decide)
