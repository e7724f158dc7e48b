module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Protocol = Manet_broadcast.Protocol

type role = Clusterhead | Gateway | Ordinary

type t = { result : Manet_broadcast.Result.t; roles : role array }

(* Transmissions piggyback the sender's declared state: clusterhead, or
   (candidate) gateway with the clusterhead neighbors it bridges.  The
   payload is the tag; a gateway's bridged set is read from [bridged]
   at the receiver, written when the gateway transmits. *)
let head_decl = 0

let gateway_decl = 1

let run ?(window = 4) env ~source ~mode =
  if window < 1 then invalid_arg "Passive_clustering.broadcast: window must be at least 1";
  let n = Graph.n env.Protocol.graph in
  if source < 0 || source >= n then
    invalid_arg "Passive_clustering.broadcast: source out of range";
  let roles = Array.make n Ordinary in
  let ch_neighbors = Array.make n Nodeset.empty in
  let covered = Array.make n Nodeset.empty in
  let bridged = Array.make n Nodeset.empty in
  roles.(source) <- Clusterhead;
  (* First declaration wins, decided after the node's backoff so the
     declarations of faster neighbors are heard first:
     - no clusterhead heard -> declare clusterhead and forward;
     - clusterheads heard but all bridged by heard gateways -> ordinary;
     - otherwise -> gateway candidate: forward, announcing its bridged
       clusterheads (two or more make it a full gateway). *)
  let result, trace =
    Protocol.run_backoff env ~window ~source ~mode ~initial:head_decl
      ~hear:(fun ~node ~from ~payload ->
        if payload = head_decl then ch_neighbors.(node) <- Nodeset.add from ch_neighbors.(node)
        else covered.(node) <- Nodeset.union covered.(node) bridged.(from))
      ~expire:(fun ~node ->
        let heads = ch_neighbors.(node) in
        if Nodeset.is_empty heads then begin
          roles.(node) <- Clusterhead;
          head_decl
        end
        else if not (Nodeset.subset heads covered.(node)) then begin
          if Nodeset.cardinal heads >= 2 then roles.(node) <- Gateway;
          bridged.(node) <- heads;
          gateway_decl
        end
        else Manet_broadcast.Engine.silent)
  in
  ({ result; roles }, trace)

let broadcast_traced ?window ~rng g ~source =
  run ?window (Protocol.make_env ~rng g) ~source ~mode:Protocol.Perfect

let broadcast ?window ~rng g ~source = fst (broadcast_traced ?window ~rng g ~source)

let protocol =
  Protocol.per_broadcast ~name:"passive"
    ~description:"passive clustering (Kwon and Gerla): roles declared in-flight, gateways may suppress"
    ~family:Protocol.Probabilistic
    (fun env ~source ~mode ->
      let p, trace = run env ~source ~mode in
      (p.result, trace))

let collect t role =
  let s = ref Nodeset.empty in
  Array.iteri (fun v r -> if r = role then s := Nodeset.add v !s) t.roles;
  !s

let heads t = collect t Clusterhead

let gateways t = collect t Gateway
