module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Rng = Manet_rng.Rng

type family = Source_independent | Source_dependent | Probabilistic

let family_tag = function
  | Source_independent -> "SI"
  | Source_dependent -> "SD"
  | Probabilistic -> "prob"

type env = {
  mutable graph : Graph.t;
  mutable clustering : Manet_cluster.Clustering.t Lazy.t;
  mutable rng : Rng.t;
  arena : Engine.Arena.t;
  mutable down : (time:int -> node:int -> bool) option;
}

let make_env ?clustering ?rng ?arena ?down graph =
  let clustering =
    match clustering with
    | Some c -> c
    | None -> lazy (Manet_cluster.Lowest_id.cluster graph)
  in
  let rng = match rng with Some r -> r | None -> Rng.create ~seed:0 in
  let arena = match arena with Some a -> a | None -> Engine.Arena.get () in
  { graph; clustering; rng; arena; down }

(* The live-view entry point: a long-lived environment tracks a mutating
   network.  Swapping the topology (and the clustering derived from it)
   in place keeps the same arena — and so the same generation-tagged
   scratch, heap storage and flatset pool — serving every broadcast of a
   continuous stream; the arena grows monotonically to the largest
   graph it has seen and is never torn down between events. *)
let retarget ?graph ?clustering ?rng env =
  (match graph with
  | None -> ()
  | Some g ->
    env.graph <- g;
    (* A stale clustering silently outliving its graph is exactly the
       bug class the workload oracles chase; force the caller to supply
       the new one (or accept the default) whenever the graph moves. *)
    env.clustering <-
      (match clustering with
      | Some c -> c
      | None -> lazy (Manet_cluster.Lowest_id.cluster g)));
  (match (graph, clustering) with
  | None, Some c -> env.clustering <- c
  | _ -> ());
  match rng with None -> () | Some r -> env.rng <- r

type mode = Perfect | Lossy of float

type built = {
  members : Nodeset.t option;
  run : source:int -> mode:mode -> Result.t * (int * int) list;
}

type t = {
  name : string;
  description : string;
  family : family;
  has_build : bool;
  prepare : env -> built;
}

(* The reception-loss closure of [mode], drawing from the environment's
   generator; [None] (never drop) under [Perfect].  A [Lossy 0.]
   closure never draws, so loss 0 is bit-identical to [Perfect]. *)
let drop env = function
  | Perfect -> None
  | Lossy loss ->
    if loss < 0. || loss > 1. then invalid_arg "Protocol.run: loss must be within [0, 1]";
    Some (Engine.loss_drop env.rng ~loss)

(* The uniform pipeline: one engine core, three modes. *)
let run_decide env ~source ~mode ~initial ~decide =
  Engine.run_core ?drop:(drop env mode) ?down:env.down ~arena:env.arena env.graph ~source
    ~initial ~decide

let run_backoff env ~window ~source ~mode ~initial ~hear ~expire =
  let rng = env.rng in
  (* Drawn up front, in node order, so results depend only on the
     generator's state, not on event interleaving. *)
  let backoff = Array.init (Graph.n env.graph) (fun _ -> 1 + Rng.int rng window) in
  Engine.run_backoff ?drop:(drop env mode) ?down:env.down ~arena:env.arena env.graph ~source
    ~initial ~backoff ~hear ~expire

(* One byte per node up to the largest member: the SI decide reads a
   byte per reception instead of walking the member tree.  A node past
   the end (the environment's graph grew since) is not a member. *)
let member_mask members =
  let mask =
    Bytes.make (match Nodeset.max_elt_opt members with Some v -> v + 1 | None -> 0) '\000'
  in
  Nodeset.iter (fun v -> Bytes.unsafe_set mask v '\001') members;
  mask

let si_decide mask ~node ~from:_ ~payload:() =
  if node < Bytes.length mask && Bytes.unsafe_get mask node <> '\000' then Some () else None

let si ~name ~description ~build =
  {
    name;
    description;
    family = Source_independent;
    has_build = true;
    prepare =
      (fun env ->
        let members = build env in
        let decide = si_decide (member_mask members) in
        {
          members = Some members;
          run = (fun ~source ~mode -> run_decide env ~source ~mode ~initial:() ~decide);
        });
  }

let with_build ~name ~description ~family prepare =
  { name; description; family; has_build = true; prepare }

let per_broadcast ~name ~description ~family run =
  {
    name;
    description;
    family;
    has_build = false;
    prepare = (fun env -> { members = None; run = (fun ~source ~mode -> run env ~source ~mode) });
  }

let per_broadcast_prepared ~name ~description ~family prepare =
  {
    name;
    description;
    family;
    has_build = false;
    prepare = (fun env -> { members = None; run = prepare env });
  }

let frozen_lossy env ~run ~source ~mode =
  match (mode, env.down) with
  | (Perfect | Lossy 0.), None ->
    (* No reception can drop and no node can fail: keep the native
       event loop, so loss 0 is bit-identical to [Perfect], like
       everywhere else. *)
    run ~source
  | _ ->
    (* Freeze the forward set from a failure-free, loss-free native
       run, then replay it through the uniform pipeline where loss and
       node failures live: the designations are decided cleanly, only
       the data propagation is unreliable. *)
    let frozen, _ = run ~source in
    let fwd = frozen.Result.forwarders in
    run_decide env ~source ~mode ~initial:() ~decide:(si_decide (member_mask fwd))

let delivery_ratio p env ~loss ~source =
  let built = p.prepare env in
  let r, _ = built.run ~source ~mode:(Lossy loss) in
  Result.delivery_ratio r

let flooding =
  per_broadcast ~name:"flooding"
    ~description:"blind flooding: every node forwards its first copy (Ni et al.'s broadcast storm)"
    ~family:Source_independent
    (fun env ~source ~mode ->
      run_decide env ~source ~mode ~initial:() ~decide:(fun ~node:_ ~from:_ ~payload:() -> Some ()))
