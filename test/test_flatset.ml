(* Flatset vs Nodeset equivalence: the flat sorted-int slices must agree
   with the AVL sets on every operation the dynamic-broadcast hot path
   uses, across pool reuse (resets and regrowth), and the staleness
   check must catch slices that outlive their generation. *)

module Flatset = Manet_graph.Flatset
module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Rng = Manet_rng.Rng
open Test_helpers

(* A random subset of [0, bound) as a strictly increasing array. *)
let random_sorted rng ~bound =
  let density = Rng.float rng 1. in
  let buf = Array.make bound 0 in
  let k = ref 0 in
  for v = 0 to bound - 1 do
    if Rng.float rng 1. < density then begin
      buf.(!k) <- v;
      incr k
    end
  done;
  Array.sub buf 0 !k

let to_list t = List.rev (Flatset.fold (fun acc v -> v :: acc) [] t)

let set_of_array a = Nodeset.of_increasing a ~len:(Array.length a)

(* Build, read back, and membership agree with Nodeset on random data,
   with several sets interleaved in one pool. *)
let prop_roundtrip_and_mem =
  qtest "of_sorted/to_nodeset/mem agree with Nodeset" ~count:200
    QCheck.(pair (int_bound 100_000) (int_range 1 80))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let pool = Flatset.create_pool () in
      let a = random_sorted rng ~bound in
      let b = random_sorted rng ~bound in
      let fa = Flatset.of_sorted pool a in
      let fb = Flatset.of_sorted pool b in
      let sa = set_of_array a and sb = set_of_array b in
      Nodeset.equal (Flatset.to_nodeset fa) sa
      && Nodeset.equal (Flatset.to_nodeset fb) sb
      && Flatset.length fa = Array.length a
      && to_list fa = Array.to_list a
      && List.for_all (fun v -> Flatset.mem fa v = Nodeset.mem v sa)
           (List.init (bound + 2) (fun i -> i - 1))
      && Array.for_all (fun i -> Flatset.get fa i = a.(i))
           (Array.init (Array.length a) Fun.id))

(* Union, difference, removal and diff against a raw sorted row agree
   with the Nodeset reference, operands living in the same pool. *)
let prop_set_ops =
  qtest "union/diff/remove/diff_row agree with Nodeset" ~count:200
    QCheck.(pair (int_bound 100_000) (int_range 1 80))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let pool = Flatset.create_pool () in
      let a = random_sorted rng ~bound in
      let b = random_sorted rng ~bound in
      let fa = Flatset.of_sorted pool a in
      let fb = Flatset.of_sorted pool b in
      let sa = set_of_array a and sb = set_of_array b in
      let x = Rng.int rng bound in
      Nodeset.equal (Flatset.to_nodeset (Flatset.union pool fa fb)) (Nodeset.union sa sb)
      && Nodeset.equal (Flatset.to_nodeset (Flatset.diff pool fa fb)) (Nodeset.diff sa sb)
      && Nodeset.equal (Flatset.to_nodeset (Flatset.diff_row pool fa b)) (Nodeset.diff sa sb)
      && Nodeset.equal
           (Flatset.to_nodeset (Flatset.remove pool fa x))
           (Nodeset.remove x sa)
      && Flatset.equal (Flatset.union pool fa fb) (Flatset.union pool fb fa))

(* Pool reuse: resetting and rebuilding over many generations yields the
   same contents every time — storage reuse is invisible. *)
let prop_reset_reuse =
  qtest "rebuild after reset is identical across generations" ~count:50
    QCheck.(pair (int_bound 100_000) (int_range 1 60))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let pool = Flatset.create_pool () in
      let a = random_sorted rng ~bound in
      let b = random_sorted rng ~bound in
      let reference = ref [] in
      let ok = ref true in
      for gen = 0 to 9 do
        Flatset.reset pool;
        let u = Flatset.union pool (Flatset.of_sorted pool a) (Flatset.of_sorted pool b) in
        let l = to_list u in
        if gen = 0 then reference := l else ok := !ok && l = !reference
      done;
      !ok)

let test_stale_slice_detected () =
  let pool = Flatset.create_pool () in
  let s = Flatset.of_sorted pool [| 1; 4; 7 |] in
  Flatset.reset pool;
  Alcotest.check_raises "stale slice raises"
    (Invalid_argument "Flatset: stale slice (pool was reset)") (fun () ->
      ignore (Flatset.mem s 4));
  (* The harness's deliberate escape hatch: retagging forges validity,
     reading whatever the pool now holds. *)
  let fresh = Flatset.of_sorted pool [| 2; 9 |] in
  ignore (Flatset.length fresh);
  let forged = Flatset.unsafe_retag s in
  Alcotest.(check int) "retagged slice reads reused storage" 2 (Flatset.get forged 0)

let test_of_increasing_validates () =
  let pool = Flatset.create_pool () in
  Alcotest.check_raises "non-increasing rejected"
    (Invalid_argument "Flatset.of_increasing: not strictly increasing") (fun () ->
      ignore (Flatset.of_increasing pool [| 3; 3 |] ~len:2));
  Alcotest.check_raises "bad length rejected"
    (Invalid_argument "Flatset.of_increasing: len out of range") (fun () ->
      ignore (Flatset.of_increasing pool [| 1 |] ~len:2))

let prop_sort_range =
  qtest "sort_range sorts exactly the requested range" ~count:200
    QCheck.(pair (int_bound 100_000) (int_range 1 60))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let a = Array.init n (fun _ -> Rng.int rng 50) in
      let lo = Rng.int rng n in
      let hi = lo + Rng.int rng (n - lo + 1) in
      let expect = Array.copy a in
      let sorted = Array.sub a lo (hi - lo) in
      Array.sort Int.compare sorted;
      Array.blit sorted 0 expect lo (hi - lo);
      Graph.sort_range a lo hi;
      a = expect)

let () =
  Alcotest.run "flatset"
    [
      ( "equivalence",
        [ prop_roundtrip_and_mem; prop_set_ops; prop_reset_reuse; prop_sort_range ] );
      ( "staleness",
        [
          Alcotest.test_case "stale slice detected, retag escapes" `Quick
            test_stale_slice_detected;
          Alcotest.test_case "of_increasing validates input" `Quick test_of_increasing_validates;
        ] );
    ]
