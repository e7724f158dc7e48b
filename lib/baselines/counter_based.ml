module Graph = Manet_graph.Graph
module Protocol = Manet_broadcast.Protocol

let run ?(window = 4) ?(threshold = 3) env ~source ~mode =
  if window < 1 then invalid_arg "Counter_based.broadcast: window must be at least 1";
  if threshold < 1 then invalid_arg "Counter_based.broadcast: threshold must be at least 1";
  let n = Graph.n env.Protocol.graph in
  if source < 0 || source >= n then invalid_arg "Counter_based.broadcast: source out of range";
  let copies = Array.make n 0 in
  Protocol.run_backoff env ~window ~source ~mode ~initial:0
    ~hear:(fun ~node ~from:_ ~payload:_ -> copies.(node) <- copies.(node) + 1)
    ~expire:(fun ~node ->
      if copies.(node) < threshold then 0 else Manet_broadcast.Engine.silent)

let broadcast_traced ?window ?threshold ~rng g ~source =
  run ?window ?threshold (Protocol.make_env ~rng g) ~source ~mode:Protocol.Perfect

let broadcast ?window ?threshold ~rng g ~source =
  fst (broadcast_traced ?window ?threshold ~rng g ~source)

let protocol =
  Protocol.per_broadcast ~name:"counter"
    ~description:"counter-based scheme (Ni et al., MOBICOM'99): rebroadcast unless C >= 3 copies heard"
    ~family:Protocol.Probabilistic
    (fun env ~source ~mode -> run env ~source ~mode)
