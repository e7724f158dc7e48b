module Point = Manet_geom.Point

(* Hot path: every topology sample builds one of these, so edges go
   through one packed half-edge buffer and straight into the CSR arrays
   via [Graph.of_half_edges] — no per-edge tuples, no per-row arrays.
   All three builders share the buffer discipline; the buffer starts with
   room for an average degree of 16 before its first regrowth. *)
type edge_buf = { mutable buf : int array; mutable len : int }

let buf_create ~n = { buf = Array.make (max 64 (16 * n)) 0; len = 0 }

let buf_push eb i j =
  if eb.len + 2 > Array.length eb.buf then begin
    let b = Array.make (2 * Array.length eb.buf) 0 in
    Array.blit eb.buf 0 b 0 eb.len;
    eb.buf <- b
  end;
  eb.buf.(eb.len) <- i;
  eb.buf.(eb.len + 1) <- j;
  eb.len <- eb.len + 2

let buf_graph ~n eb = Graph.of_half_edges ~n ~len:eb.len eb.buf

(* The cell side is a hair above the radius: an accepted pair then sits
   less than one cell apart on each axis even after the rounding of the
   distance test and of the coordinate division, so the 3 x 3 block
   around a node's cell holds every neighbor (see unit_disk.mli). *)
let cell_slack = 1. +. 0x1p-20

(* [floor] without the C call: truncation, corrected below zero. *)
let cell_of v =
  let t = int_of_float v in
  if float_of_int t > v then t - 1 else t

(* Fibonacci hashing: the top [bits] bits of a multiplicative mix of the
   two cell coordinates. *)
let bucket_of ~bits gx gy =
  ((gx * 0x1E3779B97F4A7C15) + (gy * 0x2545F4914F6CDD1D)) lsr (63 - bits)

let build ~radius points =
  if radius <= 0. then invalid_arg "Unit_disk.build: radius must be positive";
  let n = Array.length points in
  let r2 = radius *. radius in
  let side = radius *. cell_slack in
  (* Flat cell index: per-node integer cell coordinates, counting-sorted
     into [2^bits >= n] hashed buckets, node ids ascending within each.
     Cells that share a bucket are told apart by the stored coordinates,
     so far-apart nodes (the serving loop's parked rail) cost no more
     memory than clustered ones. *)
  let bits =
    let b = ref 1 in
    while 1 lsl !b < n do
      incr b
    done;
    !b
  in
  let nb = 1 lsl bits in
  let cx = Array.make n 0 and cy = Array.make n 0 and home = Array.make n 0 in
  let start = Array.make (nb + 1) 0 in
  for i = 0 to n - 1 do
    let p = Array.unsafe_get points i in
    let gx = cell_of (p.Point.x /. side) and gy = cell_of (p.Point.y /. side) in
    let b = bucket_of ~bits gx gy in
    cx.(i) <- gx;
    cy.(i) <- gy;
    home.(i) <- b;
    start.(b) <- start.(b) + 1
  done;
  (* Inclusive prefix sums put each bucket's end in [start.(b)]; the
     descending placement pass then walks every [start.(b)] back to the
     bucket's beginning, leaving ids ascending within it. *)
  for b = 1 to nb do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  let items = Array.make n 0 in
  for i = n - 1 downto 0 do
    let b = home.(i) in
    start.(b) <- start.(b) - 1;
    items.(start.(b)) <- i
  done;
  (* [home] is spent; it now holds one node's accepted candidates. *)
  let found = home in
  let eb = buf_create ~n in
  (* Node [i] emits its neighbors [j > i] in ascending order, so the
     half-edges arrive in lexicographic order and [csr_of_pairs] lays
     every CSR row out already sorted. *)
  for i = 0 to n - 1 do
    let p = Array.unsafe_get points i in
    let gx0 = cx.(i) and gy0 = cy.(i) in
    let k = ref 0 in
    for gx = gx0 - 1 to gx0 + 1 do
      for gy = gy0 - 1 to gy0 + 1 do
        let b = bucket_of ~bits gx gy in
        (* Buckets list ids ascending: walk down and stop at [i]. *)
        let s = ref (start.(b + 1) - 1) and lo = start.(b) in
        while !s >= lo && Array.unsafe_get items !s > i do
          let j = Array.unsafe_get items !s in
          if Array.unsafe_get cx j = gx && Array.unsafe_get cy j = gy then begin
            (* Exactly [Point.dist_sq]'s arithmetic: the strict rule. *)
            let q = Array.unsafe_get points j in
            let dx = p.Point.x -. q.Point.x and dy = p.Point.y -. q.Point.y in
            if (dx *. dx) +. (dy *. dy) < r2 then begin
              Array.unsafe_set found !k j;
              incr k
            end
          end;
          decr s
        done
      done
    done;
    (* Each cell gave its candidates in descending order. *)
    Graph.sort_range found 0 !k;
    for t = 0 to !k - 1 do
      buf_push eb i (Array.unsafe_get found t)
    done
  done;
  buf_graph ~n eb

let build_brute_force ~radius points =
  if radius <= 0. then invalid_arg "Unit_disk.build_brute_force: radius must be positive";
  let n = Array.length points in
  let r2 = radius *. radius in
  let eb = buf_create ~n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Point.dist_sq points.(i) points.(j) < r2 then buf_push eb i j
    done
  done;
  buf_graph ~n eb

let build_toroidal ~radius ~width ~height points =
  if radius <= 0. then invalid_arg "Unit_disk.build_toroidal: radius must be positive";
  let n = Array.length points in
  let eb = buf_create ~n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Point.dist_toroidal ~width ~height points.(i) points.(j) < radius then buf_push eb i j
    done
  done;
  buf_graph ~n eb

let expected_degree ~n ~radius ~width ~height =
  float_of_int (n - 1) *. Float.pi *. radius *. radius /. (width *. height)

let radius_for_degree ~n ~degree ~width ~height =
  if n < 2 then invalid_arg "Unit_disk.radius_for_degree: need at least 2 nodes";
  sqrt (degree *. width *. height /. (Float.pi *. float_of_int (n - 1)))
