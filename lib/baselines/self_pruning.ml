module Graph = Manet_graph.Graph
module Protocol = Manet_broadcast.Protocol

(* Position of [x] in [v]'s sorted CSR row. *)
let slot off nbr v x =
  let lo = ref off.(v) and hi = ref off.(v + 1) in
  while !hi > !lo do
    let mid = (!lo + !hi) / 2 in
    if nbr.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let run ?(window = 4) env ~source ~mode =
  if window < 1 then invalid_arg "Self_pruning.broadcast: window must be at least 1";
  let g = env.Protocol.graph in
  let n = Graph.n g in
  if source < 0 || source >= n then invalid_arg "Self_pruning.broadcast: source out of range";
  let off, nbr = Graph.csr g in
  (* [heard] flags, per half-edge (v, s), that v heard a copy from s.
     At v's expiry, [mark.(u) = v] says u lies in N[s] for some heard s,
     so no per-expiry reset is needed: every node expires at most once. *)
  let heard = Bytes.make off.(n) '\000' in
  let mark = Array.make n (-1) in
  Protocol.run_backoff env ~window ~source ~mode ~initial:0
    ~hear:(fun ~node ~from ~payload:_ -> Bytes.set heard (slot off nbr node from) '\001')
    ~expire:(fun ~node ->
      for i = off.(node) to off.(node + 1) - 1 do
        if Bytes.get heard i <> '\000' then begin
          let s = nbr.(i) in
          mark.(s) <- node;
          for j = off.(s) to off.(s + 1) - 1 do
            mark.(nbr.(j)) <- node
          done
        end
      done;
      let covered = ref true in
      for i = off.(node) to off.(node + 1) - 1 do
        if mark.(nbr.(i)) <> node then covered := false
      done;
      if !covered then Manet_broadcast.Engine.silent else 0)

let broadcast_traced ?window ~rng g ~source =
  run ?window (Protocol.make_env ~rng g) ~source ~mode:Protocol.Perfect

let broadcast ?window ~rng g ~source = fst (broadcast_traced ?window ~rng g ~source)

let protocol =
  Protocol.per_broadcast ~name:"self-pruning"
    ~description:"backoff neighbor-coverage self-pruning (Lim and Kim): resign if heard copies cover N(v)"
    ~family:Protocol.Probabilistic
    (fun env ~source ~mode -> run env ~source ~mode)
