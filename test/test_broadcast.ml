module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Engine = Manet_broadcast.Engine
module Si = Manet_broadcast.Si
module Lossy = Manet_broadcast.Lossy
module Reliable = Manet_broadcast.Reliable
module Result = Manet_broadcast.Result
open Test_helpers

(* Result accessors *)

let test_result_accessors () =
  let r =
    {
      Result.source = 0;
      forwarders = set_of_list [ 0; 2 ];
      delivered = [| true; true; false; true |];
      completion_time = 3;
    }
  in
  Alcotest.(check int) "forward count" 2 (Result.forward_count r);
  Alcotest.(check int) "delivered count" 3 (Result.delivered_count r);
  Alcotest.(check (float 1e-9)) "ratio" 0.75 (Result.delivery_ratio r);
  Alcotest.(check bool) "not all" false (Result.all_delivered r)

(* Engine semantics *)

let test_source_always_transmits () =
  let g = Graph.path 3 in
  let r = Engine.run g ~source:0 ~initial:() ~decide:(fun ~node:_ ~from:_ ~payload:() -> None) in
  Alcotest.check nodeset "only source" (set_of_list [ 0 ]) r.forwarders;
  Alcotest.(check bool) "neighbor delivered" true r.delivered.(1);
  Alcotest.(check bool) "two hops not delivered" false r.delivered.(2)

let test_payload_propagation () =
  (* Payload counts hops from the source. *)
  let g = Graph.path 4 in
  let seen = Array.make 4 (-1) in
  let r =
    Engine.run g ~source:0 ~initial:1 ~decide:(fun ~node ~from:_ ~payload ->
        seen.(node) <- payload;
        Some (payload + 1))
  in
  Alcotest.(check bool) "all delivered" true (Result.all_delivered r);
  Alcotest.(check (array int)) "hop counters" [| -1; 1; 2; 3 |] seen;
  Alcotest.(check int) "completion time" 3 r.completion_time

let test_transmit_at_most_once () =
  let g = Graph.complete 5 in
  let decisions = ref 0 in
  let r =
    Engine.run g ~source:0 ~initial:() ~decide:(fun ~node:_ ~from:_ ~payload:() ->
        incr decisions;
        Some ())
  in
  Alcotest.(check int) "everyone forwards once" 5 (Result.forward_count r);
  (* each node decides once (then it transmits and is never asked again) *)
  Alcotest.(check int) "one decision per node" 4 !decisions

let test_late_designation () =
  (* A node declines its first copies but accepts a later one: the engine
     must keep offering copies until the node transmits.  Node 2 only
     forwards when it hears from node 3.  Graph: 0-1, 0-2, 1-3, 3-2: node
     2 hears 0 first (t1), 3 later (t3). *)
  let g = Graph.of_edges ~n:4 [ (0, 1); (0, 2); (1, 3); (3, 2) ] in
  let r =
    Engine.run g ~source:0 ~initial:() ~decide:(fun ~node ~from ~payload:() ->
        if node = 2 then if from = 3 then Some () else None else Some ())
  in
  Alcotest.(check bool) "2 eventually forwards" true (Nodeset.mem 2 r.forwarders)

let test_first_copy_smallest_sender () =
  (* Nodes 1 and 2 both reach node 3 at t = 2, carrying different
     payloads: the engine must offer node 3 the copy from sender 1
     (smallest id) first.  Node 3 declines it, so the copy from sender 2
     in the same slot must still be offered, and node 3 forwards at
     t = 2 with that copy's payload. *)
  let g = Graph.of_edges ~n:5 [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4) ] in
  let offers = ref [] in
  let r, timeline =
    Engine.run_core g ~source:0 ~initial:[ 0 ] ~decide:(fun ~node ~from ~payload ->
        offers := (node, from, payload) :: !offers;
        if node = 3 && from = 1 then None else Some (node :: payload))
  in
  let offers_to v = List.filter (fun (u, _, _) -> u = v) (List.rev !offers) in
  Alcotest.(check (list (triple int int (list int))))
    "node 3: sender 1 first, then sender 2"
    [ (3, 1, [ 1; 0 ]); (3, 2, [ 2; 0 ]) ]
    (offers_to 3);
  Alcotest.(check (list (triple int int (list int))))
    "node 4 hears node 3's relay of sender 2's copy" [ (4, 3, [ 3; 2; 0 ]) ] (offers_to 4);
  Alcotest.(check (list (pair int int)))
    "timeline" [ (0, 0); (1, 1); (1, 2); (2, 3); (3, 4) ] timeline;
  Alcotest.(check int) "completion" 3 r.completion_time

let test_source_out_of_range () =
  let g = Graph.path 2 in
  Alcotest.check_raises "range" (Invalid_argument "Engine.run: source out of range") (fun () ->
      ignore (Engine.run g ~source:5 ~initial:() ~decide:(fun ~node:_ ~from:_ ~payload:() -> None)))

let test_single_node_graph () =
  let g = Graph.empty 1 in
  let r = Engine.run g ~source:0 ~initial:() ~decide:(fun ~node:_ ~from:_ ~payload:() -> Some ()) in
  Alcotest.(check bool) "delivered" true (Result.all_delivered r);
  Alcotest.(check int) "one forward" 1 (Result.forward_count r)

let prop_flooding_latency_is_eccentricity =
  Test_helpers.qtest "flooding completion time = eccentricity" ~count:40
    (Test_helpers.arb_udg ()) (fun case ->
      let seed, n, _ = case in
      let g = (Test_helpers.sample_of case).graph in
      let source = seed mod n in
      let r =
        Engine.run g ~source ~initial:() ~decide:(fun ~node:_ ~from:_ ~payload:() -> Some ())
      in
      r.completion_time = Manet_graph.Bfs.eccentricity g source)

(* SI broadcast *)

let test_si_full_cds () =
  let g = paper_graph () in
  let cds = set_of_list [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let r = Si.run g ~in_cds:(fun v -> Nodeset.mem v cds) ~source:0 in
  Alcotest.(check bool) "delivers" true (Result.all_delivered r);
  Alcotest.(check int) "count helper agrees" (Result.forward_count r)
    (Si.forward_count_of_set g ~cds ~source:0)

let test_si_partial_set_partial_delivery () =
  let g = Graph.path 5 in
  (* Only node 1 forwards: nodes 3,4 unreachable. *)
  let r = Si.run g ~in_cds:(fun v -> v = 1) ~source:0 in
  Alcotest.(check bool) "3 not delivered" false r.delivered.(3);
  Alcotest.check nodeset "forwarders" (set_of_list [ 0; 1 ]) r.forwarders

let prop_si_delivery_iff_cds =
  qtest "SI broadcast over a CDS delivers" ~count:60 (arb_udg ()) (fun case ->
      let seed, n, _ = case in
      let g = (sample_of case).graph in
      let cds = Manet_mcds.Greedy_cds.build g in
      let r = Si.run g ~in_cds:(fun v -> Nodeset.mem v cds) ~source:(seed mod n) in
      Result.all_delivered r)

let prop_forwarders_subset_cds_plus_source =
  qtest "forwarders = reached CDS members plus source" ~count:60 (arb_udg ()) (fun case ->
      let seed, n, _ = case in
      let g = (sample_of case).graph in
      let cds = Manet_mcds.Greedy_cds.build g in
      let source = seed mod n in
      let r = Si.run g ~in_cds:(fun v -> Nodeset.mem v cds) ~source in
      Nodeset.subset r.forwarders (Nodeset.add source cds))

(* Lossy engine *)

let test_lossy_zero_loss_equals_engine () =
  let g = paper_graph () in
  let rng = Manet_rng.Rng.create ~seed:1 in
  let flood ~node:_ ~from:_ ~payload:() = Some () in
  let a = Lossy.run g ~rng ~loss:0. ~source:0 ~initial:() ~decide:flood in
  let b = Engine.run g ~source:0 ~initial:() ~decide:flood in
  Alcotest.check nodeset "identical at zero loss" a.forwarders b.forwarders;
  Alcotest.(check (array bool)) "same deliveries" a.delivered b.delivered

let test_lossy_total_loss () =
  let g = paper_graph () in
  let rng = Manet_rng.Rng.create ~seed:1 in
  let r =
    Lossy.run g ~rng ~loss:1. ~source:0 ~initial:()
      ~decide:(fun ~node:_ ~from:_ ~payload:() -> Some ())
  in
  Alcotest.(check int) "only the source" 1 (Result.delivered_count r);
  Alcotest.check nodeset "source transmits anyway" (set_of_list [ 0 ]) r.forwarders

let test_lossy_validation () =
  let g = paper_graph () in
  let rng = Manet_rng.Rng.create ~seed:1 in
  Alcotest.check_raises "loss range" (Invalid_argument "Lossy.run: loss must be within [0, 1]")
    (fun () ->
      ignore
        (Lossy.run g ~rng ~loss:1.5 ~source:0 ~initial:()
           ~decide:(fun ~node:_ ~from:_ ~payload:() -> None)))

let test_lossy_monotone_in_loss () =
  (* Averaged over repetitions, higher loss cannot improve delivery. *)
  let g = (Test_helpers.udg ~seed:21 ~n:60 ~d:8.).graph in
  let mean_delivery loss =
    let rng = Manet_rng.Rng.create ~seed:5 in
    let sum = ref 0. in
    for _ = 1 to 40 do
      sum := !sum +. Lossy.flooding_delivery g ~rng ~loss ~source:0
    done;
    !sum /. 40.
  in
  let d0 = mean_delivery 0. and d2 = mean_delivery 0.2 and d6 = mean_delivery 0.6 in
  Alcotest.(check (float 1e-9)) "perfect at zero" 1. d0;
  Alcotest.(check bool) (Printf.sprintf "monotone: %f >= %f >= %f" d0 d2 d6) true
    (d0 >= d2 && d2 >= d6)

let test_lossy_flooding_redundancy () =
  (* Flooding shrugs off 10%% loss on a dense graph. *)
  let g = (Test_helpers.udg ~seed:22 ~n:80 ~d:12.).graph in
  let rng = Manet_rng.Rng.create ~seed:6 in
  let sum = ref 0. in
  for _ = 1 to 30 do
    sum := !sum +. Lossy.flooding_delivery g ~rng ~loss:0.1 ~source:0
  done;
  Alcotest.(check bool) "delivery above 0.99" true (!sum /. 30. > 0.99)

let test_lossy_deterministic () =
  let g = (Test_helpers.udg ~seed:23 ~n:50 ~d:8.).graph in
  let run () =
    Lossy.run g
      ~rng:(Manet_rng.Rng.create ~seed:9)
      ~loss:0.3 ~source:0 ~initial:()
      ~decide:(fun ~node:_ ~from:_ ~payload:() -> Some ())
  in
  Alcotest.check nodeset "same forwarders" (run ()).forwarders (run ()).forwarders;
  Alcotest.(check (array bool)) "same deliveries" (run ()).delivered (run ()).delivered

let test_run_traced_timeline () =
  let g = Graph.path 4 in
  let r, timeline =
    Engine.run_traced g ~source:0 ~initial:() ~decide:(fun ~node:_ ~from:_ ~payload:() -> Some ())
  in
  Alcotest.(check bool) "all delivered" true (Result.all_delivered r);
  Alcotest.(check (list (pair int int))) "chain timeline" [ (0, 0); (1, 1); (2, 2); (3, 3) ]
    timeline

let test_run_traced_consistent_with_run () =
  let g = (Test_helpers.udg ~seed:71 ~n:40 ~d:8.).graph in
  let decide ~node ~from:_ ~payload:() = if node mod 2 = 0 then Some () else None in
  let r1 = Engine.run g ~source:0 ~initial:() ~decide in
  let r2, timeline = Engine.run_traced g ~source:0 ~initial:() ~decide in
  Alcotest.check nodeset "same forwarders" r1.forwarders r2.forwarders;
  Alcotest.(check int) "one timeline entry per forwarder" (Result.forward_count r1)
    (List.length timeline);
  (* timeline times are non-decreasing *)
  let rec sorted = function
    | (t1, _) :: ((t2, _) :: _ as rest) -> t1 <= t2 && sorted rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "sorted" true (sorted timeline)

(* Reliable (ack/retransmit) broadcast *)

let chain_parent n = Array.init n (fun v -> v - 1)

let test_reliable_zero_loss_chain () =
  let n = 5 in
  let g = Graph.path n in
  let rng = Manet_rng.Rng.create ~seed:1 in
  let o = Reliable.run g ~rng ~loss:0. ~root:0 ~parent:(chain_parent n) in
  Alcotest.(check bool) "complete" true o.complete;
  Alcotest.(check (float 1e-9)) "full delivery" 1. (Reliable.delivery_ratio o);
  (* Each of the 4 internal parents transmits exactly once; each of the 4
     children acks exactly once; the chain needs 4 rounds. *)
  Alcotest.(check int) "data" 4 o.data_transmissions;
  Alcotest.(check int) "acks" 4 o.ack_transmissions;
  Alcotest.(check int) "rounds" 4 o.rounds

let test_reliable_star_zero_loss () =
  let g = Graph.star 6 in
  let rng = Manet_rng.Rng.create ~seed:1 in
  let parent = Array.init 6 (fun v -> if v = 0 then -1 else 0) in
  let o = Reliable.run g ~rng ~loss:0. ~root:0 ~parent in
  Alcotest.(check int) "one data transmission" 1 o.data_transmissions;
  Alcotest.(check int) "five acks" 5 o.ack_transmissions;
  Alcotest.(check bool) "complete" true o.complete

let test_reliable_under_loss_completes () =
  let s = Test_helpers.udg ~seed:61 ~n:50 ~d:8. in
  let g = s.graph in
  let cl = Manet_cluster.Lowest_id.cluster g in
  let tree = Manet_baselines.Forwarding_tree.build g cl Manet_coverage.Coverage.Hop25 ~source:0 in
  let parent =
    Array.init (Graph.n g) (fun v ->
        if v = tree.root then -1
        else if Nodeset.mem v tree.members then tree.parent.(v)
        else Manet_cluster.Clustering.head_of cl v)
  in
  let rng = Manet_rng.Rng.create ~seed:62 in
  let o = Reliable.run g ~rng ~loss:0.3 ~root:tree.root ~parent in
  Alcotest.(check bool) "complete despite 30% loss" true o.complete;
  Alcotest.(check bool) "retransmissions happened" true
    (o.data_transmissions > Nodeset.cardinal tree.members - 1)

let test_reliable_more_loss_more_cost () =
  let s = Test_helpers.udg ~seed:63 ~n:50 ~d:8. in
  let g = s.graph in
  let n = Graph.n g in
  let parent =
    (* BFS tree rooted at 0: parent = smallest-id neighbor one level up *)
    let dist = Manet_graph.Bfs.distances g ~source:0 in
    Array.init n (fun v ->
        if v = 0 then -1
        else
          Graph.fold_neighbors g v
            (fun acc u -> if dist.(u) = dist.(v) - 1 && (acc < 0 || u < acc) then u else acc)
            (-1))
  in
  let cost loss =
    let sum = ref 0 in
    for seed = 1 to 30 do
      let rng = Manet_rng.Rng.create ~seed in
      let o = Reliable.run g ~rng ~loss ~root:0 ~parent in
      sum := !sum + Reliable.total_transmissions o
    done;
    !sum
  in
  let c0 = cost 0. and c3 = cost 0.3 in
  Alcotest.(check bool) (Printf.sprintf "cost grows with loss (%d < %d)" c0 c3) true (c0 < c3)

let prop_reliable_zero_loss_exact =
  Test_helpers.qtest "reliable tree at zero loss: one tx per internal node" ~count:30
    (Test_helpers.arb_udg ~n_max:40 ()) (fun case ->
      let g = (Test_helpers.sample_of case).graph in
      let n = Graph.n g in
      let dist = Manet_graph.Bfs.distances g ~source:0 in
      let parent =
        Array.init n (fun v ->
            if v = 0 then -1
            else
              Graph.fold_neighbors g v
                (fun acc u -> if dist.(u) = dist.(v) - 1 && (acc < 0 || u < acc) then u else acc)
                (-1))
      in
      let internal = Array.make n false in
      Array.iteri (fun v p -> if v <> 0 then internal.(p) <- true) parent;
      let internal_count = Array.fold_left (fun a b -> if b then a + 1 else a) 0 internal in
      let rng = Manet_rng.Rng.create ~seed:1 in
      let o = Reliable.run g ~rng ~loss:0. ~root:0 ~parent in
      o.complete && o.data_transmissions = internal_count && o.ack_transmissions = n - 1)

let test_reliable_validation () =
  let g = Graph.path 3 in
  let rng = Manet_rng.Rng.create ~seed:1 in
  Alcotest.check_raises "root parent" (Invalid_argument "Reliable.run: root's parent must be -1")
    (fun () -> ignore (Reliable.run g ~rng ~loss:0. ~root:0 ~parent:[| 1; 0; 1 |]));
  Alcotest.check_raises "non-neighbor parent"
    (Invalid_argument "Reliable.run: parent must be a graph neighbor") (fun () ->
      ignore (Reliable.run g ~rng ~loss:0. ~root:0 ~parent:[| -1; 0; 0 |]));
  Alcotest.check_raises "loss range" (Invalid_argument "Reliable.run: loss must be within [0, 1]")
    (fun () -> ignore (Reliable.run g ~rng ~loss:2. ~root:0 ~parent:(chain_parent 3)))

let test_reliable_timeout_reported () =
  (* Total loss: nothing beyond the root can ever be delivered. *)
  let g = Graph.path 3 in
  let rng = Manet_rng.Rng.create ~seed:1 in
  let o = Reliable.run ~max_rounds:10 g ~rng ~loss:1. ~root:0 ~parent:(chain_parent 3) in
  Alcotest.(check bool) "incomplete" false o.complete;
  Alcotest.(check int) "hit the cap" 10 o.rounds

(* Arena mechanics at the engine level: one arena serving graphs of
   different sizes back and forth, and re-entrant runs from inside a
   decide callback falling back safely. *)

let result_t = Alcotest.testable Result.pp (fun (a : Result.t) b ->
    a.source = b.source
    && Nodeset.equal a.forwarders b.forwarders
    && a.delivered = b.delivered
    && a.completion_time = b.completion_time)

let flood_decide ~node:_ ~from:_ ~payload:() = Some ()

let test_arena_across_sizes () =
  let arena = Engine.Arena.create () in
  let graphs = [ udg ~seed:7 ~n:60 ~d:6.; udg ~seed:8 ~n:9 ~d:4.; udg ~seed:9 ~n:120 ~d:10. ] in
  (* Interleave sizes twice so the second pass hits a shrunken-then-grown
     arena with stale generations everywhere. *)
  List.iter
    (fun _ ->
      List.iter
        (fun (s : Manet_topology.Generator.sample) ->
          let fresh = Engine.run_core s.graph ~source:0 ~initial:() ~decide:flood_decide in
          let reused = Engine.run_core ~arena s.graph ~source:0 ~initial:() ~decide:flood_decide in
          Alcotest.check result_t "result matches fresh run" (fst fresh) (fst reused);
          Alcotest.(check (list (pair int int))) "timeline matches" (snd fresh) (snd reused))
        graphs)
    [ (); () ]

let test_arena_reentrant () =
  let arena = Engine.Arena.create () in
  let outer = (udg ~seed:12 ~n:30 ~d:6.).graph in
  let inner = Graph.path 6 in
  (* Every outer decide runs a nested broadcast on the same arena, with
     payloads of another type: the nested run must fall back to private
     scratch and leave the outer run's state, its in-flight payloads
     included, untouched. *)
  let hops ~node:_ ~from:_ ~payload = if payload < 3 then Some (payload + 1) else None in
  let nested_results = ref [] in
  let run_outer ~nest =
    let offered = ref [] in
    let decide ~node ~from ~payload =
      if nest then begin
        let r, _ = Engine.run_core ~arena inner ~source:0 ~initial:0 ~decide:hops in
        nested_results := r :: !nested_results
      end;
      offered := (node, from, payload) :: !offered;
      Some (string_of_int node :: payload)
    in
    let r, timeline = Engine.run_core ~arena outer ~source:0 ~initial:[ "0" ] ~decide in
    (r, timeline, List.rev !offered)
  in
  let r, timeline, offered = run_outer ~nest:true in
  let plain, plain_timeline, plain_offered = run_outer ~nest:false in
  Alcotest.check result_t "outer run unaffected by nesting" plain r;
  Alcotest.(check (list (pair int int))) "outer timeline" plain_timeline timeline;
  Alcotest.(check (list (triple int int (list string))))
    "outer copies offered" plain_offered offered;
  List.iter
    (fun (_, from, payload) ->
      Alcotest.(check string) "payload names its sender" (string_of_int from) (List.hd payload))
    offered;
  let reference = Engine.run inner ~source:0 ~initial:0 ~decide:hops in
  List.iter (Alcotest.check result_t "nested run correct" reference) !nested_results;
  Alcotest.(check bool) "nesting actually happened" true (!nested_results <> [])

(* Decide-style outputs pinned on 50 seeded unit-disk graphs: one
   digest per setting over (forwarders, delivered, completion time,
   timeline).  The pins were recorded from the per-reception heap loop
   that the level walk replaced, so any change to the (time, receiver,
   sender) reception order, to the loss stream or to the failure
   semantics shows up here.  The settings cover a payload- and
   [from]-dependent rule, the SI member test, the registry's
   payload-carrying dominant pruning and MPR, Lossy 0.1 and a node
   failure schedule. *)
module Protocol = Manet_broadcast.Protocol
module Registry = Manet_protocols.Registry

let digest_cases =
  lazy
    (List.init 50 (fun i ->
         let n = 12 + (i * 17 mod 60) in
         let d = Float.min (List.nth [ 5.; 8.; 12.; 18. ] (i mod 4)) (float_of_int (n - 2)) in
         (udg ~seed:(7000 + i) ~n ~d).graph))

let run_digest run =
  let buf = Buffer.create 65536 in
  List.iteri
    (fun i g ->
      let (r : Result.t), timeline = run i g ~source:(i * 5 mod Graph.n g) in
      Nodeset.iter (fun v -> Printf.bprintf buf "%d," v) r.forwarders;
      Array.iter (fun d -> Buffer.add_char buf (if d then '1' else '0')) r.delivered;
      Printf.bprintf buf "|%d|" r.completion_time;
      List.iter (fun (t, v) -> Printf.bprintf buf "%d:%d," t v) timeline;
      Buffer.add_char buf '\n')
    (Lazy.force digest_cases);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* A node forwards a hop count unless its id, the sender's and the
   count sum to a multiple of 3: later copies, with other senders and
   counts, still get their turn. *)
let hop_rule ~node ~from ~payload =
  if (node + from + payload) mod 3 = 0 then None else Some (payload + 1)

let down_schedule ~time ~node = ((node * 7) + time) mod 5 = 3 || (node mod 11 = 4 && time >= 2)

let registry_run name ?down mode i g ~source =
  let env = Protocol.make_env ?down ~rng:(Manet_rng.Rng.create ~seed:(300 + i)) g in
  ((Registry.find_exn name).prepare env).run ~source ~mode

let pinned_engine_digests =
  let core ?down ?loss decide _ g ~source =
    let drop =
      Option.map (fun loss -> Engine.loss_drop (Manet_rng.Rng.create ~seed:source) ~loss) loss
    in
    Engine.run_core ?drop ?down g ~source ~initial:0 ~decide
  in
  let perfect = Protocol.Perfect and lossy = Protocol.Lossy 0.1 and down = down_schedule in
  [
    ("flooding", "003adbf053a88b734f3d990141103035", core (fun ~node:_ ~from:_ ~payload -> Some payload));
    ("hop rule", "c336c2bfe70093281e63176d3c8ac927", core hop_rule);
    ("hop rule lossy 0.1", "35735288fb4b3eebbec47590e218fbd6", core ~loss:0.1 hop_rule);
    ("hop rule down", "425ef7d6a8cd508f4d80a102162183f8", core ~down hop_rule);
    ("static-2.5hop", "89230d83f7847a1a1a6f83ff6e333654", registry_run "static-2.5hop" perfect);
    ("mo_cds", "f75436b2a60f7ce58e0ad88ee9258b30", registry_run "mo_cds" perfect);
    ("dp", "38b7ce75f12315e0f1fd56d61b133ae4", registry_run "dp" perfect);
    ("mpr", "5785a728f5bb7c983bcbfe604bfd3c8a", registry_run "mpr" perfect);
    ("flooding lossy 0.1", "57bcaf09d372a7bc8c3ac7eccbbd0aa4", registry_run "flooding" lossy);
    ("static-2.5hop lossy 0.1", "b1f7845c86ae9de1a26be934915d4391", registry_run "static-2.5hop" lossy);
    ("dp lossy 0.1", "cb7772be777d921f5d96583fcc307770", registry_run "dp" lossy);
    ("mpr lossy 0.1", "89924465bfc9b30580a2970819811194", registry_run "mpr" lossy);
    ("dynamic-2.5hop lossy 0.1", "3dc66b23167dba7c7c5d5e37eacc503d", registry_run "dynamic-2.5hop" lossy);
    ("flooding down", "7aae395a29a69422e65aad2ef0b06849", registry_run "flooding" ~down perfect);
    ("static-2.5hop down", "2cbb806e151031cdc91922105879922e", registry_run "static-2.5hop" ~down perfect);
    ("dp down lossy 0.1", "891463952e54a5757c939b3e9195cc73", registry_run "dp" ~down lossy);
  ]

let test_engine_digests () =
  List.iter
    (fun (name, expected, run) -> Alcotest.(check string) name expected (run_digest run))
    pinned_engine_digests

let () =
  Alcotest.run "broadcast"
    [
      ("result", [ Alcotest.test_case "accessors" `Quick test_result_accessors ]);
      ( "engine",
        [
          Alcotest.test_case "silent network" `Quick test_source_always_transmits;
          Alcotest.test_case "payload propagation" `Quick test_payload_propagation;
          Alcotest.test_case "transmit at most once" `Quick test_transmit_at_most_once;
          Alcotest.test_case "late designation" `Quick test_late_designation;
          Alcotest.test_case "deterministic tie-break" `Quick test_first_copy_smallest_sender;
          Alcotest.test_case "source out of range" `Quick test_source_out_of_range;
          Alcotest.test_case "single node" `Quick test_single_node_graph;
          Alcotest.test_case "arena reuse across sizes" `Quick test_arena_across_sizes;
          Alcotest.test_case "arena reentrancy" `Quick test_arena_reentrant;
          Alcotest.test_case "decide-style digests pinned" `Quick test_engine_digests;
        ] );
      ( "lossy",
        [
          Alcotest.test_case "zero loss = reliable engine" `Quick test_lossy_zero_loss_equals_engine;
          Alcotest.test_case "total loss" `Quick test_lossy_total_loss;
          Alcotest.test_case "validation" `Quick test_lossy_validation;
          Alcotest.test_case "monotone in loss" `Quick test_lossy_monotone_in_loss;
          Alcotest.test_case "flooding redundancy" `Quick test_lossy_flooding_redundancy;
          Alcotest.test_case "deterministic" `Quick test_lossy_deterministic;
        ] );
      ( "traced",
        [
          Alcotest.test_case "chain timeline" `Quick test_run_traced_timeline;
          Alcotest.test_case "consistent with run" `Quick test_run_traced_consistent_with_run;
        ] );
      ( "reliable",
        [
          Alcotest.test_case "chain, zero loss" `Quick test_reliable_zero_loss_chain;
          Alcotest.test_case "star, zero loss" `Quick test_reliable_star_zero_loss;
          Alcotest.test_case "completes under loss" `Quick test_reliable_under_loss_completes;
          Alcotest.test_case "cost grows with loss" `Quick test_reliable_more_loss_more_cost;
          Alcotest.test_case "validation" `Quick test_reliable_validation;
          prop_reliable_zero_loss_exact;
          Alcotest.test_case "timeout reported" `Quick test_reliable_timeout_reported;
        ] );
      ( "si",
        [
          Alcotest.test_case "full backbone" `Quick test_si_full_cds;
          Alcotest.test_case "partial set" `Quick test_si_partial_set_partial_delivery;
          prop_flooding_latency_is_eccentricity;
          prop_si_delivery_iff_cds;
          prop_forwarders_subset_cds_plus_source;
        ] );
    ]
