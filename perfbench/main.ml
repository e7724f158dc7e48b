(* The repository's benchmark: four closed-loop workloads, each timing
   one kind of op, plus a traced run that breaks op time down by layer.

   Usage (from the repository root, normally through perfbench/run.py):
     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--ops N] [--fault KIND] [--spans FILE]

   One process, one domain, one client: each op starts only when the
   previous one has finished.  [--ops N] replaces the time budget by a
   fixed op count (rounded up to whole batches), which makes every count
   and the output digest a pure function of the seed.  [--fault] seeds a
   known defect that the output checks must catch. *)

open Harness
module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Unit_disk = Manet_graph.Unit_disk
module Rng = Manet_rng.Rng
module Spec = Manet_topology.Spec
module Generator = Manet_topology.Generator
module Mobility = Manet_topology.Mobility
module Protocol = Manet_broadcast.Protocol
module Engine = Manet_broadcast.Engine
module Result = Manet_broadcast.Result
module Registry = Manet_protocols.Registry
module Coverage = Manet_coverage.Coverage
module Lowest_id = Manet_cluster.Lowest_id
module Bm = Manet_backbone.Backbone_maintenance
module Static = Manet_backbone.Static_backbone
module Scenario = Manet_experiment.Scenario
module Figures = Manet_experiment.Figures
module Sweep = Manet_experiment.Sweep
module Metric = Manet_experiment.Metric
module Workload = Manet_experiment.Workload
module Summary = Manet_stats.Summary

(* Global op index: the parent op of every span. *)
let op_index = ref 0

(* A workload's set-up builds its state from a fresh generator and
   returns [batch], which runs one or more ops into the given phase.
   Warm-up ops run untraced, so spans cover timed ops only. *)
let warm_up f =
  let saved = !Trace.on in
  Trace.on := false;
  f ();
  Trace.on := saved

(* {1 figs-n100: one op is one experimental sample at n=100, d=18}

   The union of the fig6, fig7 and fig8 series (3 structure sizes and 5
   forward counts), compiled by the scenario layer and run through
   [Sweep.run_point] with stopping pinned to one chunk of samples. *)

let figs_n = 100
let figs_chunk = 8

let figs_metrics () =
  let label = function
    | Scenario.Forwards r -> Scenario.Forwards { r with name = Some ("fwd." ^ r.protocol) }
    | Scenario.Structure_size r ->
      Scenario.Structure_size { r with name = Some ("size." ^ r.protocol) }
    | m -> failwith ("figs-n100: unexpected series " ^ Scenario.metric_name m)
  in
  let union =
    List.fold_left
      (fun acc m -> if List.mem m acc then acc else acc @ [ m ])
      []
      (List.concat_map
         (fun f -> (Figures.builtin_exn f).Scenario.metrics)
         [ "fig6"; "fig7"; "fig8" ])
  in
  let s =
    Scenario.make ~name:"figs-n100" ~ns:[ figs_n ] ~degrees:[ 18. ]
      ~stopping:{ Scenario.min_samples = figs_chunk; max_samples = figs_chunk; rel_precision = 1. }
      (List.map label union)
  in
  (match Scenario.validate s with Ok () -> () | Error e -> failwith e);
  Scenario.compile s

(* Construction layers replayed on each sample's own context. *)
let prepare_span = function
  | "mo_cds" -> "baselines.prepare.mo_cds"
  | s -> "core.prepare." ^ s

let figs_prepared = [ "static-2.5hop"; "static-3hop"; "dynamic-2.5hop"; "dynamic-3hop"; "mo_cds" ]

let replay_figs ~op (ctx : Metric.ctx) =
  traced ~parent:"topology.draw" "graph.unit_disk" ~op (fun () ->
      ignore (Unit_disk.build ~radius:ctx.radius ctx.points));
  traced ~parent:"topology.draw" "cluster.lowest_id" ~op (fun () ->
      ignore (Lowest_id.cluster ctx.graph));
  traced ~parent:"" "coverage.cache.hop25" ~op (fun () ->
      ignore (Coverage.Cache.create ctx.graph ctx.clustering Coverage.Hop25));
  traced ~parent:"" "coverage.cache.hop3" ~op (fun () ->
      ignore (Coverage.Cache.create ctx.graph ctx.clustering Coverage.Hop3));
  List.iter
    (fun s ->
      let p = Registry.find_exn s in
      traced ~parent:"" (prepare_span s) ~op (fun () ->
          ignore (p.Protocol.prepare (Metric.env_of ctx))))
    figs_prepared

let figs rng =
  let spec = Spec.make ~n:figs_n ~avg_degree:18. () in
  let metrics = Array.of_list (figs_metrics ()) in
  let k = Array.length metrics in
  let values = Array.make (figs_chunk * k) 0. in
  let ctxs = Array.make figs_chunk None in
  let phase = ref (Phase.start ()) and cursor = ref 0 and sample = ref 0 in
  let span_names = Array.map (fun (m : Metric.t) -> "experiment.metric." ^ m.name) metrics in
  (* Op boundaries are the ends of each sample's last series; the gap
     before a sample's first series is its topology draw. *)
  let wrap j (m : Metric.t) =
    {
      m with
      Metric.eval =
        (fun ctx ->
          let t0 = now () in
          let op = !op_index in
          if j = 0 then begin
            ctxs.(!sample) <- Some ctx;
            if !Trace.on then Trace.span "topology.draw" ~op !cursor t0
          end;
          let v = m.eval ctx in
          let t1 = now () in
          if !Trace.on then Trace.span span_names.(j) ~op t0 t1;
          values.((!sample * k) + j) <- v;
          if j = k - 1 then begin
            Phase.op !phase (t1 - !cursor);
            if !Trace.on then Trace.span ~parent:"" "op" ~op !cursor t1;
            cursor := t1;
            incr sample;
            incr op_index
          end;
          v);
    }
  in
  let wrapped = Array.to_list (Array.mapi wrap metrics) in
  let ops_rng = Rng.split rng in
  let batch p =
    phase := p;
    sample := 0;
    let first_op = !op_index in
    cursor := now ();
    let point =
      Sweep.run_point ~min_samples:figs_chunk ~max_samples:figs_chunk ~rng:(Rng.split ops_rng)
        ~spec wrapped
    in
    Phase.harness p (fun () ->
        let in_range v = Float.is_finite v && v >= 1. && v <= float_of_int figs_n in
        for i = 0 to !sample - 1 do
          let ok = ref true in
          for j = 0 to k - 1 do
            let v = values.((i * k) + j) in
            if not (in_range v) then ok := false;
            mix (int_of_float (v *. 1000.))
          done;
          if not !ok then Phase.fail p;
          match ctxs.(i) with
          | Some ctx when !Trace.on -> replay_figs ~op:(first_op + i) ctx
          | _ -> ()
        done;
        let cell_ok (_, c) = in_range (Summary.mean c.Sweep.summary) in
        if point.Sweep.samples <> !sample || not (List.for_all cell_ok point.Sweep.cells) then
          Phase.fail p)
  in
  (* Warm-up: a few chunks, so lazy set-up and arena growth happen here
     and set-up time does not rest on a handful of samples. *)
  warm_up (fun () ->
      let warm = Phase.start () in
      for _ = 1 to 3 do
        batch warm
      done);
  batch

(* {1 bcast-perfect / bcast-lossy: one op is one source broadcast under
   five schemes on a prepared n=1000, d=12 topology}

   Construction is paid in set-up.  Ops cycle through a few prepared
   topologies, so a run's figures average over several random instances
   instead of resting on the one its seed happens to draw. *)

let bcast_schemes = [| "flooding"; "static-2.5hop"; "dynamic-2.5hop"; "mo_cds"; "counter" |]
let bcast_n = 1000
let bcast_topologies = 8

(* Whose lossy run is the frozen replay of a native perfect run. *)
let frozen s = s = "dynamic-2.5hop" || s = "counter"

let bcast ~lossy fault rng =
  let spec = Spec.make ~n:bcast_n ~avg_degree:12. () in
  let arena = Engine.Arena.create () in
  Engine.Arena.reserve arena ~n:bcast_n;
  let prepare env s =
    let p =
      if fault = "stale-pool" && s = "dynamic-2.5hop" then Manet_check.Mutate.stale_pool
      else Registry.find_exn s
    in
    traced ~parent:"" (prepare_span s) ~op:(-1) (fun () -> p.Protocol.prepare env)
  in
  let nets =
    Array.init bcast_topologies (fun _ ->
        let g = (Generator.sample_connected rng spec).Generator.graph in
        let env = Protocol.make_env ~arena g in
        (g, env, Array.map (prepare env) bcast_schemes))
  in
  let mode = if lossy || fault = "loss" then Protocol.Lossy 0.1 else Protocol.Perfect in
  let run_names = Array.map (fun s -> "broadcast.run." ^ s) bcast_schemes in
  let alloc_names = Array.map (fun s -> "broadcast.alloc." ^ s) bcast_schemes in
  let results = Array.make (Array.length bcast_schemes) None in
  let ops_rng = Rng.split rng in
  let fwd_mark = Array.make bcast_n false in
  (* The output checks of one broadcast: the source forwards, every
     forwarder received the packet, every other delivered node heard a
     forwarding neighbour, and a perfect broadcast of a deterministic
     scheme reaches all n nodes. *)
  let sound ~perfect g i (r : Result.t) =
    let off, nbr = Graph.csr g in
    let source = r.Result.source in
    Nodeset.iter (fun v -> fwd_mark.(v) <- true) r.Result.forwarders;
    let heard v =
      let rec scan e = e < off.(v + 1) && (fwd_mark.(nbr.(e)) || scan (e + 1)) in
      scan off.(v)
    in
    let ok = ref (Nodeset.mem source r.Result.forwarders) in
    for v = 0 to bcast_n - 1 do
      if fwd_mark.(v) && not r.Result.delivered.(v) then ok := false;
      if r.Result.delivered.(v) && v <> source && not (heard v) then ok := false
    done;
    Nodeset.iter (fun v -> fwd_mark.(v) <- false) r.Result.forwarders;
    let complete = Result.delivered_count r = bcast_n in
    !ok && ((not perfect) || bcast_schemes.(i) = "counter" || complete)
  in
  (* Under loss, completeness cannot be checked directly.  For
     dynamic-2.5hop, whose lossy run replays the forward set of a native
     perfect run, the native run from the same source is checked as a
     perfect broadcast, and the lossy forwarders must be among its
     forwarders. *)
  let native_checked s = lossy && s = "dynamic-2.5hop" in
  let count name v = Trace.add name v in
  let next = ref 0 in
  let batch p =
    let op = !op_index in
    let g, env, built = nets.(!next mod bcast_topologies) in
    incr next;
    let source = Rng.int ops_rng bcast_n in
    let t0 = now () in
    Array.iteri
      (fun i (b : Protocol.built) ->
        Protocol.retarget ~rng:(Rng.split ops_rng) env;
        if !Trace.on then begin
          let a0 = alloc_words () in
          let u0 = now () in
          let r, _ = b.run ~source ~mode in
          let u1 = now () in
          let a1 = alloc_words () in
          Trace.span run_names.(i) ~op u0 u1;
          count alloc_names.(i) (a1 -. a0 -. alloc_probe_words);
          results.(i) <- Some r
        end
        else results.(i) <- Some (fst (b.run ~source ~mode)))
      built;
    let t1 = now () in
    Phase.op p (t1 - t0);
    if !Trace.on then Trace.span ~parent:"" "op" ~op t0 t1;
    incr op_index;
    Phase.harness p (fun () ->
        let ok = ref true in
        Array.iteri
          (fun i r ->
            match r with
            | None -> ok := false
            | Some r ->
              let s = bcast_schemes.(i) in
              if not (sound ~perfect:(not lossy) g i r) then ok := false;
              mix (Result.forward_count r);
              mix (Result.delivered_count r);
              if native_checked s || (!Trace.on && lossy && frozen s) then begin
                let native, _ =
                  traced ~parent:run_names.(i) ("broadcast.native_run." ^ s) ~op (fun () ->
                      built.(i).run ~source ~mode:Protocol.Perfect)
                in
                if
                  native_checked s
                  && not
                       (sound ~perfect:true g i native
                       && Nodeset.subset r.Result.forwarders native.Result.forwarders)
                then ok := false
              end;
              if !Trace.on then begin
                let receptions =
                  Nodeset.fold (fun v acc -> acc + Graph.degree g v) r.Result.forwarders 0
                in
                count ("broadcast.receptions." ^ s) (float_of_int receptions);
                count ("broadcast.forwarders." ^ s) (float_of_int (Result.forward_count r));
                count ("broadcast.delivered_frac." ^ s) (Result.delivery_ratio r)
              end)
          results;
        if not !ok then Phase.fail p)
  in
  (* Warm-up: one op per topology, so every lazy cache is built here. *)
  warm_up (fun () ->
      let warm = Phase.start () in
      for _ = 1 to bcast_topologies do
        batch warm
      done);
  batch

(* {1 serve-mobile: one op is one maintenance window of a serving run}

   Workload.run at n=200, d=12 with Poisson arrivals, join/leave churn,
   random-waypoint motion and periodic maintenance.  A window is the
   time between consecutive [on_maintenance] callbacks: about 20
   arrivals, 4 churn events, 10 motion steps and one maintenance. *)

let serve_period = 1.
let serve_duration = 40.

let serve_spec duration =
  Workload.make ~arrival_rate:20. ~duration ~join_rate:2. ~leave_rate:2.
    ~maintenance_every:serve_period ()

let serve_motion =
  {
    Workload.model = Mobility.Random_waypoint;
    dt = 0.1;
    speed_min = 1.;
    speed_max = 5.;
    pause_time = 0.;
  }

let serve fault rng =
  let spec = Spec.make ~n:200 ~avg_degree:12. () in
  let ops_rng = Rng.split rng in
  let replay_rng = Rng.split rng in
  let replay_arena = Engine.Arena.create () in
  let skip_maintenance = if fault = "skip-maintenance" then Some 5 else None in
  (* Protocol.run_decide over the probe's members, from [k] random
     non-isolated sources: the serving loop's broadcast, replayed. *)
  let replay_broadcasts (probe : Workload.probe) k =
    let g = probe.Workload.graph in
    let members = probe.Workload.backbone.Static.members in
    let env = Protocol.make_env ~arena:replay_arena g in
    let decide ~node ~from:_ ~payload:() = if Nodeset.mem node members then Some () else None in
    let total = ref 0 in
    for _ = 1 to k do
      let rec pick tries =
        let v = Rng.int replay_rng (Graph.n g) in
        if Graph.degree g v > 0 || tries = 0 then v else pick (tries - 1)
      in
      let source = pick 100 in
      let t0 = now () in
      ignore (Protocol.run_decide env ~source ~mode:Protocol.Perfect ~initial:() ~decide);
      total := !total + (now () - t0)
    done;
    float_of_int !total /. float_of_int k
  in
  (* Each stream starts from its own connected placement, so a run
     averages over many initial topologies.  The windows between
     consecutive callbacks are the ops; everything before the first
     callback (the placement, the stream's start-up and its first window)
     and after the last one belongs to no op and is taken out of the
     phase. *)
  let stream ~duration p =
    let start = Phase.mark () in
    let rng = Rng.split ops_rng in
    let sample = Generator.sample_connected rng spec in
    let points = sample.Generator.points and radius = sample.Generator.radius in
    let shadow = Bm.create (Unit_disk.build ~radius points) Coverage.Hop25 in
    let callbacks = ref 0 and cursor = ref start in
    let replay_sum = ref 0. and replays = ref 0 in
    let on_maintenance (probe : Workload.probe) =
      let t = now () in
      let op = !op_index in
      let is_op = !callbacks > 0 in
      incr callbacks;
      if is_op then begin
        Phase.op p (t - fst !cursor);
        if !Trace.on then Trace.span ~parent:"" "op" ~op (fst !cursor) t;
        incr op_index
      end
      else Phase.exclude p start;
      Phase.harness p (fun () ->
          let m0 = now () in
          let report = Bm.update shadow probe.Workload.graph in
          let m1 = now () in
          let live = probe.Workload.backbone.Static.members in
          mix (Nodeset.cardinal live);
          mix probe.Workload.stale_events;
          if is_op then begin
            if not (Nodeset.equal live (Bm.backbone shadow).Static.members) then Phase.fail p;
            if !Trace.on then begin
              Trace.span "core.maintenance" ~op m0 m1;
              Trace.add "core.maintenance_msgs" (float_of_int report.Bm.total_messages);
              Trace.add "core.refreshed_heads" (float_of_int report.Bm.refreshed_heads);
              let u0 = now () in
              ignore (Unit_disk.build ~radius points);
              let snapshots = float_of_int probe.Workload.stale_events in
              Trace.attribute "graph.unit_disk" (float_of_int (now () - u0) *. snapshots);
              replay_sum := !replay_sum +. replay_broadcasts probe 2;
              incr replays
            end
          end);
      cursor := Phase.mark ()
    in
    let stats =
      Workload.run ~motion:serve_motion ~on_maintenance ?skip_maintenance ~rng
        ~points ~radius ~spec (serve_spec duration)
    in
    Phase.exclude p !cursor;
    Phase.harness p (fun () ->
        mix stats.Workload.broadcasts;
        mix stats.Workload.churn_events;
        mix stats.Workload.maintenance_messages;
        if !Trace.on && !replays > 0 then begin
          let c = float_of_int !callbacks in
          let windows = float_of_int (!callbacks - 1) in
          (* Broadcasts inside the timed windows, at the stream's rate. *)
          let in_windows = float_of_int stats.Workload.broadcasts *. windows /. c in
          let per_broadcast = !replay_sum /. float_of_int !replays in
          Trace.attribute "broadcast.serve_run" (per_broadcast *. in_windows);
          Trace.add "serve.callbacks" c;
          Trace.add "serve.streams" 1.;
          Trace.add "serve.broadcasts" (float_of_int stats.Workload.broadcasts);
          Trace.add "serve.churn_events" (float_of_int stats.Workload.churn_events);
          Trace.add "serve.mean_staleness" stats.Workload.mean_staleness;
          Trace.add "serve.delivery" stats.Workload.delivery
        end)
  in
  warm_up (fun () -> stream ~duration:10. (Phase.start ()));
  stream ~duration:serve_duration

let workloads = [ "figs-n100"; "bcast-perfect"; "bcast-lossy"; "serve-mobile" ]

(* The set-up of a workload, with an optional seeded fault. *)
let setup_of name fault =
  match (name, fault) with
  | "figs-n100", "" -> Some figs
  | "bcast-perfect", ("" | "loss" | "stale-pool") | "bcast-lossy", ("" | "stale-pool") ->
    Some (bcast ~lossy:(name = "bcast-lossy") fault)
  | "serve-mobile", ("" | "skip-maintenance") -> Some (serve fault)
  | _ -> None

(* {1 Per-layer report} *)

let per_layer ~ops ~p50_us ~p99_us ~overhead ~fail_frac =
  let ops = float_of_int ops in
  let per_op name = Trace.total name /. ops in
  let us_per_op name = per_op name /. 1e3 in
  let mean_us name =
    let c = Trace.total (name ^ "#n") in
    if c = 0. then 0. else Trace.total name /. c /. 1e3
  in
  let streams = Trace.total "serve.streams" in
  let per_stream name = if streams = 0. then 0. else Trace.total name /. streams in
  let per_window name =
    let c = Trace.total "serve.callbacks" in
    if c = 0. then 0. else Trace.total name /. c
  in
  let scheme_rows s =
    let run = "broadcast.run." ^ s in
    let receptions = Trace.total ("broadcast.receptions." ^ s) in
    [
      ("broadcast.run_us." ^ s, us_per_op run, "us");
      ( "broadcast.us_per_reception." ^ s,
        (if receptions = 0. then 0. else Trace.total run /. 1e3 /. receptions),
        "us" );
      ("broadcast.alloc_words." ^ s, per_op ("broadcast.alloc." ^ s), "words");
      ("broadcast.forwarders." ^ s, per_op ("broadcast.forwarders." ^ s), "count");
      ("broadcast.delivered_frac." ^ s, per_op ("broadcast.delivered_frac." ^ s), "1");
    ]
  in
  let serving = streams > 0. in
  List.concat
    [
      [
        ("topology.draw_us", us_per_op "topology.draw", "us");
        ("graph.unit_disk_us", us_per_op "graph.unit_disk", "us");
        ("cluster.lowest_id_us", us_per_op "cluster.lowest_id", "us");
        ("coverage.cache_us.hop25", us_per_op "coverage.cache.hop25", "us");
        ("coverage.cache_us.hop3", us_per_op "coverage.cache.hop3", "us");
      ];
      List.map
        (fun s ->
          let name = prepare_span s in
          let key =
            if s = "mo_cds" then "baselines.prepare_us.mo_cds" else "core.prepare_us." ^ s
          in
          (key, mean_us name, "us"))
        figs_prepared;
      List.map
        (fun m ->
          let m = m.Metric.name in
          ("experiment.metric_us." ^ m, us_per_op ("experiment.metric." ^ m), "us"))
        (figs_metrics ());
      List.concat_map scheme_rows (Array.to_list bcast_schemes);
      List.map
        (fun s -> ("broadcast.native_run_us." ^ s, us_per_op ("broadcast.native_run." ^ s), "us"))
        [ "dynamic-2.5hop"; "counter" ];
      [
        ("core.maintenance_us", us_per_op "core.maintenance", "us");
        ("core.maintenance_msgs", per_op "core.maintenance_msgs", "count");
        ("core.refreshed_heads", per_op "core.refreshed_heads", "count");
        ("broadcast.serve_run_us", us_per_op "broadcast.serve_run", "us");
        ("experiment.loop_self_us", (if serving then Trace.self "op" /. ops /. 1e3 else 0.), "us");
        ("experiment.broadcasts", per_window "serve.broadcasts", "count");
        ("experiment.churn_events", per_window "serve.churn_events", "count");
        ("experiment.mean_staleness", per_stream "serve.mean_staleness", "count");
        ("experiment.delivery", per_stream "serve.delivery", "1");
        ("trace.ops", ops, "count");
        ("trace.op_p50_us", p50_us, "us");
        ("trace.op_p99_us", p99_us, "us");
        ("trace.residual_us", Trace.self "op" /. ops /. 1e3, "us");
        ("trace.overhead_frac", overhead, "1");
        ("check.fail_frac", fail_frac, "1");
      ];
    ]

(* {1 Command line} *)

(* Set-up is repeated and its median reported, so that one slow
   repetition does not move setup_s. *)
let setup_reps = 5

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let ops_target = ref 0 and fault = ref "" and spans = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S timed-phase length");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--ops", Arg.Set_int ops_target, "N fixed op count instead of a time budget");
      ("--fault", Arg.Set_string fault, "KIND seeded defect (loss, stale-pool, skip-maintenance)");
      ("--spans", Arg.Set_string spans, "FILE write the traced run's spans here");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe --workload NAME";
  let setup =
    match setup_of !workload !fault with
    | Some f -> f
    | None ->
      prerr_endline
        (Printf.sprintf "unknown workload %S or fault %S; workloads: %s" !workload !fault
           (String.concat ", " workloads));
      exit 2
  in
  let traced_run = !trace = 1 in
  (* Set-up: repeated, median reported; the last state is measured. *)
  Trace.on := traced_run;
  let reps = if traced_run then 1 else setup_reps in
  let setup_times = ref [] and batch = ref (fun _ -> ()) in
  for _ = 1 to reps do
    (* Reclaim the previous repetition first: peak_heap_mb is a
       high-water mark and must reflect one set-up, not several. *)
    batch := ignore;
    Gc.full_major ();
    let t0 = now () in
    batch := setup (Rng.create ~seed:!seed);
    setup_times := (float_of_int (now () - t0) /. 1e9) :: !setup_times
  done;
  let run_phase budget_s =
    let p = Phase.start () in
    let deadline = now () + int_of_float (budget_s *. 1e9) in
    let continue () =
      if !ops_target > 0 then Phase.ops p < !ops_target else now () < deadline
    in
    while continue () do
      !batch p
    done;
    Phase.finish p
  in
  let ops_per_s (s : Phase.summary) = float_of_int s.ops /. s.busy_s in
  let pct (s : Phase.summary) q = float_of_int (percentile s.sorted q) /. 1e3 in
  let totals phases =
    let count f = List.fold_left (fun acc (p : Phase.summary) -> acc + f p) 0 phases in
    (count (fun p -> p.ops), count (fun p -> p.failed))
  in
  let phases, metrics =
    if not traced_run then begin
      let s = run_phase !seconds in
      let heap = (Gc.quick_stat ()).Gc.top_heap_words in
      ( [ s ],
        [
          ("setup_s", median !setup_times, "s");
          ("ops_per_s", ops_per_s s, "1/s");
          ("op_p50_us", pct s 0.5, "us");
          ("op_p90_us", pct s 0.9, "us");
          ("alloc_words_per_op", s.words /. float_of_int s.ops, "words");
          ("peak_heap_mb", float_of_int (heap * (Sys.word_size / 8)) /. 1048576., "MB");
          ("fail_frac", float_of_int s.failed /. float_of_int (max 1 s.ops), "1");
        ] )
    end
    else begin
      Trace.on := false;
      let plain = run_phase (!seconds /. 2.) in
      Trace.on := true;
      let s = run_phase (!seconds /. 2.) in
      Trace.on := false;
      if !spans <> "" then Trace.write !spans;
      let overhead = 1. -. (ops_per_s s /. ops_per_s plain) in
      let ops, failed = totals [ plain; s ] in
      Printf.printf "layer shares of op time (traced):\n";
      List.iter (fun (l, f) -> Printf.printf "  %-34s %6.2f%%\n" l (100. *. f)) (Trace.shares ());
      Printf.printf "  %-34s %6.2f%%\n" "(residual: op self time)"
        (100. *. Trace.self "op" /. Trace.total "op");
      ( [ plain; s ],
        per_layer ~ops:s.ops ~p50_us:(pct s 0.5) ~p99_us:(pct s 0.99) ~overhead
          ~fail_frac:(float_of_int failed /. float_of_int (max 1 ops)) )
    end
  in
  let ops, failed = totals phases in
  List.iter (fun (name, v, unit) -> Printf.printf "%-40s %.6g %s\n" name v unit) metrics;
  Printf.printf
    "#detail {\"workload\": %S, \"seed\": %d, \"ops\": %d, \"failed\": %d, \"digest\": \"%x\", \
     \"fault\": %S}\n"
    !workload !seed ops failed !digest !fault;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0 && ops > 0) ops failed (json_metrics metrics)
