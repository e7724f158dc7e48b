(* Measurement plumbing shared by every workload: a monotonic wall clock,
   exact allocation counts, the per-phase op recorder, and the in-memory
   span trace of the traced run. *)

(* Nanoseconds from CLOCK_MONOTONIC; the external is unboxed and
   noalloc, so reading it inside an op allocates nothing. *)
let now () = Int64.to_int (Monotonic_clock.now ())

(* Every word allocated so far: minor allocations plus direct major
   allocations (promotions are counted in both and subtracted once).
   Exact, and independent of when collections happen.  The minor count
   comes from [Gc.minor_words]: the one in [Gc.counters] leaves out the
   words allocated since the last minor collection. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* What one [alloc_words] call allocates itself (its result tuple). *)
let alloc_probe_words =
  let a = alloc_words () in
  let b = alloc_words () in
  b -. a

(* A growable int buffer of op latencies. *)
module Vec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 1024 0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let bigger = Array.make (2 * v.len) 0 in
      Array.blit v.data 0 bigger 0 v.len;
      v.data <- bigger
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let to_array v = Array.sub v.data 0 v.len
end

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* Order-sensitive digest of a run's outputs (never of its timings). *)
let digest = ref 17

let mix x = digest := ((!digest * 1_000_003) + x) land max_int

(* {1 The op recorder}

   One timed phase.  Ops are closed-loop: the next one starts only when
   the previous one has finished.  Output checks and trace replays run
   between ops as {e harness} work; their wall time and allocation are
   taken out of the phase totals, so [ops_per_s] and
   [alloc_words_per_op] describe the system alone.  System work that
   belongs to no op (a serving stream's start-up) is taken out the same
   way. *)
module Phase = struct
  type t = {
    lat : Vec.t;  (** one latency per completed op, ns *)
    t0 : int;
    a0 : float;
    mutable harness_ns : int;
    mutable harness_words : float;
    mutable failed : int;
  }

  let start () =
    {
      lat = Vec.create ();
      t0 = now ();
      a0 = alloc_words ();
      harness_ns = 0;
      harness_words = 0.;
      failed = 0;
    }

  let op p ns = Vec.push p.lat ns
  let ops p = p.lat.Vec.len
  let fail p = p.failed <- p.failed + 1

  (* A point in time and allocation, from which [exclude] takes out
     everything up to now. *)
  let mark () =
    let a = alloc_words () in
    (now (), a)

  let exclude p (t, a) =
    p.harness_ns <- p.harness_ns + (now () - t);
    p.harness_words <- p.harness_words +. (alloc_words () -. a) +. alloc_probe_words

  let harness p f =
    let m = mark () in
    let r = f () in
    exclude p m;
    r

  type summary = {
    ops : int;
    failed : int;
    busy_s : float;  (** phase wall time minus harness time *)
    words : float;  (** words allocated by the system during the phase *)
    sorted : int array;
  }

  let finish p =
    let t1 = now () in
    let a1 = alloc_words () in
    let sorted = Vec.to_array p.lat in
    Array.sort compare sorted;
    {
      ops = ops p;
      failed = p.failed;
      busy_s = float_of_int (t1 - p.t0 - p.harness_ns) /. 1e9;
      words = a1 -. p.a0 -. p.harness_words -. alloc_probe_words;
      sorted;
    }
end

(* {1 The span trace}

   Spans are recorded from the benchmark's own code around calls into
   each library's public functions, kept in memory, and written out when
   the run ends.  Each span names its parent layer; a layer's self time
   is its total minus the totals of the layers whose parent it is.
   [attribute] adds an estimate to a layer without a span of its own
   (e.g. a replayed per-snapshot cost times the snapshot count). *)
module Trace = struct
  let on = ref false
  let parents : (string, string) Hashtbl.t = Hashtbl.create 64
  let totals : (string, float) Hashtbl.t = Hashtbl.create 64

  (* (name, op, start, end), newest first *)
  let spans = ref []

  let add name v =
    Hashtbl.replace totals name (v +. Option.value ~default:0. (Hashtbl.find_opt totals name))

  let total name = Option.value ~default:0. (Hashtbl.find_opt totals name)

  let link name parent =
    if parent <> "" && not (Hashtbl.mem parents name) then Hashtbl.add parents name parent

  let span ?(parent = "op") name ~op a b =
    link name parent;
    spans := (name, op, a, b) :: !spans;
    add name (float_of_int (b - a));
    add (name ^ "#n") 1.

  let attribute ?(parent = "op") name ns =
    link name parent;
    add name ns

  let self name =
    Hashtbl.fold (fun c p acc -> if p = name then acc -. total c else acc) parents (total name)

  (* The top-level layers of an op and their share of it. *)
  let shares () =
    let op_total = total "op" in
    Hashtbl.fold
      (fun c p acc -> if p = "op" then (c, total c /. op_total) :: acc else acc)
      parents []
    |> List.sort compare

  let write path =
    let oc = open_out path in
    output_string oc "name\tparent\top\tstart_ns\tend_ns\n";
    List.iter
      (fun (name, op, a, b) ->
        Printf.fprintf oc "%s\t%s\t%d\t%d\t%d\n" name
          (Option.value ~default:"" (Hashtbl.find_opt parents name))
          op a b)
      (List.rev !spans);
    close_out oc
end

(* Times [f] as a span when tracing; a plain call otherwise. *)
let traced ?parent name ~op f =
  if not !Trace.on then f ()
  else begin
    let a = now () in
    let r = f () in
    Trace.span ?parent name ~op a (now ());
    r
  end

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* JSON numbers with every digit kept. *)
let json_num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let json_metrics ms =
  ms
  |> List.map (fun (name, v, unit) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
  |> String.concat ", "
