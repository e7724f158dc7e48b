(** Unit-disk graph construction.

    "Two hosts are considered neighbors if and only if their geographic
    distance is less than r" (Section 1).

    {!build} runs over a flat cell index, so construction is near-linear
    in the number of nodes for the uniform placements used in the
    evaluation.  Each node gets integer cell coordinates on a square grid
    of side [s = r (1 + 2^-20)], and the nodes are counting-sorted into
    [2^k >= n] hashed buckets: one offsets array and one items array, no
    per-cell lists.  Cells that share a bucket are told apart by the
    stored coordinates, so memory stays O(n) however far apart the nodes
    lie.

    {b Why a 3 x 3 scan suffices.}  A pair passes the strict test
    [dist_sq < r^2] only if its coordinates differ by less than
    [r (1 + 2 eps)] on each axis, where [eps = 2^-53].  The two divisions
    by [s] are off by at most [eps] times the quotient each, so the two
    cell quotients differ by less than one while the coordinates stay
    within about [2^31] cells of the origin, and the floors then differ
    by at most one.  Every neighbor therefore lies in the 3 x 3 block of
    cells around a node; the test itself is {!Manet_geom.Point.dist_sq}
    exactly, so the result equals {!build_brute_force}.

    {b Sorted rows.}  Node [i] emits its neighbors [j > i] in ascending
    order, so the half-edges reach {!Graph.of_half_edges} in
    lexicographic order and every CSR row comes out already sorted; the
    row sort then costs one linear check per row. *)

val build : radius:float -> Manet_geom.Point.t array -> Graph.t
(** [build ~radius points] links every pair at distance strictly less than
    [radius].  Node [i] is [points.(i)].
    @raise Invalid_argument if [radius <= 0.]. *)

val build_brute_force : radius:float -> Manet_geom.Point.t array -> Graph.t
(** O(n^2) reference implementation; used by tests as the oracle for
    {!build}. *)

val build_toroidal :
  radius:float -> width:float -> height:float -> Manet_geom.Point.t array -> Graph.t
(** Unit-disk graph under the toroidal (wrap-around) metric — a
    border-effect-free variant of {!build} for methodological
    comparisons (O(n^2); the confined-space experiments never need it at
    scale). *)

val expected_degree : n:int -> radius:float -> width:float -> height:float -> float
(** Expected average degree of a uniform placement, ignoring border
    effects: [(n - 1) * pi r^2 / (width * height)]. *)

val radius_for_degree : n:int -> degree:float -> width:float -> height:float -> float
(** Inverse of {!expected_degree}: the transmission range giving the
    target average degree.  This is how the experiments translate the
    paper's "fixed average node degree d = 6 and 18" into a radius for
    each network size. *)
