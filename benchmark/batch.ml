(* The two batch workloads. ingest is the paper's own job, cold bytes to
   a servable index image; evolve re-releases a living distribution
   through one shared analysis cache. Both time whole units of work
   back to back until the run's seconds are spent. *)

module Json = Core.Query.Json
module G = Core.Distro.Generator
module Pkg = Core.Distro.Package
module Pipeline = Core.Db.Pipeline
module Snapshot = Core.Db.Snapshot
module Query = Core.Query.Engine
module Serve = Core.Query.Serve
module Stage = Core.Perf.Stage

(* World sizes, chosen so every workload's run (three set-ups plus the
   measured seconds) stays within the benchmark's time budget. *)
let ingest_packages = 400
let evolve_packages = 200
let releases = 8

(* Set-up runs this many times; setup_s is the median. *)
let setups = 3

(* One timed unit of work; [ops] is the packages it processed. *)
type unit_stats = { wall : float; cpu : float; ops : float; pipe : Layers.pipe; index_s : float }

(* Run [f] (which reports its own timed wall) until [seconds] of timed
   work and at least [min] runs are done. *)
let repeat ~seconds ~min f =
  let rec go acc spent n =
    if spent >= seconds && n >= min then List.rev acc
    else
      let r, wall = f n in
      go (r :: acc) (spent +. wall) (n + 1)
  in
  go [] 0.0 0

let setup_times f =
  let runs = List.init setups (fun _ -> Layers.time f) in
  (fst (List.nth runs (setups - 1)), Harness.median_by snd runs, List.map snd runs)

let hwm () = Procfs.hwm_mb (Unix.getpid ())

let program_report () =
  [ ( "program_reported",
      Json.Obj
        [ ( "stages",
            Json.Arr
              (List.map
                 (fun (l : Stage.line) ->
                   Json.Obj
                     [ ("name", Json.Str l.Stage.l_name);
                       ("seconds", Json.Num l.Stage.l_seconds);
                       ("entries", Json.Num (float_of_int l.Stage.l_entries)) ])
                 (Stage.report ())) );
          ( "counters",
            Json.Obj
              (List.map
                 (fun (k, v) -> (k, Json.Num (float_of_int v)))
                 (Stage.report_counters ())) ) ] ) ]

(* The untraced half's median against the traced half's. *)
let overhead_pct ~untraced ~traced =
  let u = Harness.median untraced and t = Harness.median traced in
  if u = 0.0 then 0.0 else ((t /. u) -. 1.0) *. 100.0

let batch_e2e ~setup_s units =
  [ ("setup_s", setup_s);
    ("latency_ms", Harness.median_by (fun u -> u.wall) units *. 1e3);
    ("rss_mb", hwm ()) ]

let cpu_us_per_op units =
  ("cpu_us_per_op", Harness.median_by (fun u -> u.cpu /. u.ops *. 1e6) units)

(* Both halves of a traced run, or the whole run untraced. *)
let measure ~seconds ~trace ~min f =
  if not trace then (repeat ~seconds ~min f, [])
  else begin
    let untraced = repeat ~seconds:(seconds /. 2.0) ~min f in
    Trace.enabled := true;
    let traced = repeat ~seconds:(seconds /. 2.0) ~min f in
    Trace.enabled := false;
    (untraced, traced)
  end

(* --- ingest ---------------------------------------------------------- *)

let ingest ~seed ~seconds ~trace =
  let config = { G.default_config with n_packages = ingest_packages; seed } in
  let dist, setup_s, gen_times =
    setup_times (fun () -> Trace.span "distro.generate" (fun () -> G.generate ~config ()))
  in
  let n = float_of_int (Pkg.n_packages dist) in
  let source_key =
    Snapshot.source_key ~seed ~n_packages:ingest_packages
      ~total_installs:config.G.total_installs ()
  in
  let last = ref None in
  let quarantined = ref 0 and binaries = ref 0 in
  let image_digests = Hashtbl.create 4 in
  let rep _ =
    let cpu0 = Procfs.self_cpu_s () in
    let t0 = Trace.now_ns () in
    let (a, pipe), idx, img, index_s, image_s =
      Trace.span "ingest.rep" @@ fun () ->
      let a, pipe = Layers.pipeline dist in
      let idx, index_s =
        Trace.span "query.index" (fun () ->
            Layers.time (fun () -> Query.index a.Pipeline.store))
      in
      let img, image_s =
        Trace.span "query.image_encode" (fun () ->
            Layers.time (fun () ->
                match Query.to_image_string ~seed ~source_key idx with
                | Ok s -> s
                | Error _ -> failwith "image encode failed"))
      in
      ((a, pipe), idx, img, index_s, image_s)
    in
    let wall = float_of_int (Trace.now_ns () - t0) /. 1e9 in
    let cpu = Procfs.self_cpu_s () -. cpu0 in
    quarantined := !quarantined + Pipeline.quarantined a;
    binaries := !binaries + List.length a.Pipeline.store.Core.Db.Store.bins;
    Hashtbl.replace image_digests (Digest.string img) ();
    last := Some (a, idx, img, image_s);
    ({ wall; cpu; ops = n; pipe; index_s }, wall)
  in
  let untraced, traced = measure ~seconds ~trace ~min:3 rep in
  let e2e = batch_e2e ~setup_s untraced in
  let a, idx, img, image_s = Option.get !last in
  (* Correctness, untimed: a clean corpus, exact footprints, the same
     image every rep, and the mapped image answering the probe stream
     exactly as the heap index does. *)
  let spot = List.length (Pipeline.spot_check a) in
  let mapped =
    match Query.of_image img with
    | Ok m -> m
    | Error _ -> failwith "the encoded image does not load"
  in
  let mix = Pools.serve_mix ~seed idx in
  let disagree =
    Array.fold_left
      (fun acc rq ->
        let answer i = Harness.json_expected (Serve.handle_request i { Core.Query.Protocol.rq_id = None; rq_op = rq }) in
        if String.equal (answer idx) (answer mapped) then acc else acc + 1)
      0 mix.Pools.reqs
  in
  let differing_images = Hashtbl.length image_digests - 1 in
  let failed = !quarantined + spot + disagree + differing_images in
  let problems =
    List.filter_map
      (fun (n, what) -> if n > 0 then Some (Printf.sprintf "%d %s" n what) else None)
      [ (!quarantined, "binaries quarantined");
        (spot, "packages failed the footprint spot check");
        (disagree, "probe answers differ between the image and the heap index");
        (differing_images, "reps encoded a different image") ]
  in
  let layers =
    if not trace then []
    else
      let med f = Harness.median_by f traced in
      [ cpu_us_per_op untraced;
        ("distro.generate_s", Harness.median gen_times);
        ("query.index_s", med (fun u -> u.index_s));
        ("query.image_encode_s", image_s);
        ("query.image_bytes", float_of_int (String.length img));
        ( "trace.overhead_pct",
          overhead_pct ~untraced:(List.map (fun u -> u.wall) untraced)
            ~traced:(List.map (fun u -> u.wall) traced) ) ]
      @ Layers.pipeline_metrics (List.map (fun u -> u.pipe) traced)
      @ Layers.analysis dist
      @ Layers.serving ~seed idx
      @ (let snap = Snapshot.of_analyzed a in Layers.delta ~base:snap snap)
      @ Layers.gc ()
      @ Harness.no_serving_processes
  in
  { Harness.e2e; layers;
    attempted = !binaries + Array.length mix.Pools.reqs + Pkg.n_packages dist;
    failed; problems;
    extra = (if trace then program_report () else []) }

(* --- evolve ---------------------------------------------------------- *)

let evolve ~seed ~seconds ~trace =
  let config = { G.default_config with n_packages = evolve_packages; seed } in
  let with_cache cache = { Pipeline.default with shared_cache = Some cache } in
  let gen_times = ref [] in
  let (dist0, cache0, base), setup_s, _ =
    setup_times (fun () ->
        let dist, s =
          Trace.span "distro.generate" (fun () -> Layers.time (fun () -> G.generate ~config ()))
        in
        gen_times := s :: !gen_times;
        let cache = Pipeline.new_cache () in
        let a = Pipeline.run ~config:(with_cache cache) dist in
        (dist, cache, Snapshot.of_analyzed a))
  in
  (* The later releases are input synthesis: made once, outside every
     timed release. *)
  let dists = Array.make (releases + 1) None in
  let evolve_s = ref [] in
  let dist_of r =
    match dists.(r) with
    | Some d -> d
    | None ->
      let d, s = Layers.time (fun () -> G.evolve ~config ~release:r ()) in
      evolve_s := s :: !evolve_s;
      dists.(r) <- Some d;
      d
  in
  let cache = ref cache0 in
  let quarantined = ref 0 and binaries = ref 0 in
  let release8 = ref None in
  let deltas = ref [] in
  let last_idx = ref None in
  let release i =
    let r = 1 + (i mod releases) in
    if r = 1 && i > 0 then begin
      (* a fresh pass: a new cache warmed on release 0, untimed *)
      cache := Pipeline.new_cache ();
      ignore (Pipeline.run ~config:(with_cache !cache) dist0)
    end;
    let dist = dist_of r in
    let cpu0 = Procfs.self_cpu_s () in
    let t0 = Trace.now_ns () in
    let a, pipe, index_s, snap, delta, delta_s =
      Trace.span "evolve.release" @@ fun () ->
      let a, pipe = Layers.pipeline ~config:(with_cache !cache) dist in
      let idx, index_s =
        Trace.span "query.index" (fun () ->
            Layers.time (fun () -> Query.index a.Pipeline.store))
      in
      last_idx := Some idx;
      let snap = Snapshot.of_analyzed a in
      let delta, delta_s =
        Trace.span "db.delta_encode" (fun () ->
            Layers.time (fun () -> Snapshot.to_delta_string ~base snap))
      in
      (a, pipe, index_s, snap, delta, delta_s)
    in
    let wall = float_of_int (Trace.now_ns () - t0) /. 1e9 in
    let cpu = Procfs.self_cpu_s () -. cpu0 in
    quarantined := !quarantined + Pipeline.quarantined a;
    binaries := !binaries + List.length a.Pipeline.store.Core.Db.Store.bins;
    if i = releases - 1 && Option.is_none !release8 then release8 := Some (dist, snap, delta);
    deltas := (delta_s, String.length delta) :: !deltas;
    ({ wall; cpu; ops = float_of_int (Pkg.n_packages dist); pipe; index_s }, wall)
  in
  let untraced, traced =
    if not trace then (repeat ~seconds ~min:releases release, [])
    else begin
      let u = repeat ~seconds:(seconds /. 2.0) ~min:releases release in
      Trace.enabled := true;
      deltas := [];
      (* the traced half starts a pass of its own *)
      let t =
        repeat ~seconds:(seconds /. 2.0) ~min:releases (fun i ->
            release (i + (releases * (1 + (List.length u / releases)))))
      in
      Trace.enabled := false;
      (u, t)
    end
  in
  let e2e = batch_e2e ~setup_s untraced in
  (* Correctness, untimed: the incremental release-8 snapshot is
     byte-identical to a from-scratch analysis, and its delta applies
     back to it. *)
  let dist8, snap8, delta8 = Option.get !release8 in
  let inc = Snapshot.to_string snap8 in
  let scratch = Snapshot.to_string (Snapshot.of_analyzed (Pipeline.run dist8)) in
  let scratch_differs = if String.equal inc scratch then 0 else 1 in
  let delta_differs =
    match Snapshot.apply_delta ~base delta8 with
    | Ok s when String.equal (Snapshot.to_string s) inc -> 0
    | _ -> 1
  in
  let failed = !quarantined + scratch_differs + delta_differs in
  let problems =
    List.filter_map
      (fun (n, what) -> if n > 0 then Some (Printf.sprintf "%d %s" n what) else None)
      [ (!quarantined, "binaries quarantined");
        (scratch_differs, "release-8 incremental snapshot differs from scratch");
        (delta_differs, "release-8 delta does not apply back to its snapshot") ]
  in
  let layers =
    if not trace then []
    else
      let idx = Option.get !last_idx in
      let med f = Harness.median_by f traced in
      let image, image_s =
        Trace.span "query.image_encode" (fun () ->
            Layers.time (fun () -> Result.get_ok (Query.to_image_string idx)))
      in
      [ cpu_us_per_op untraced;
        ("distro.generate_s", Harness.median !gen_times);
        ("query.index_s", med (fun u -> u.index_s));
        ("query.image_encode_s", image_s);
        ("query.image_bytes", float_of_int (String.length image));
        ("db.delta_encode_s", Harness.median_by fst !deltas);
        ("db.delta_bytes", Harness.median_by (fun (_, b) -> float_of_int b) !deltas);
        ( "trace.overhead_pct",
          overhead_pct ~untraced:(List.map (fun u -> u.wall) untraced)
            ~traced:(List.map (fun u -> u.wall) traced) ) ]
      @ Layers.pipeline_metrics (List.map (fun u -> u.pipe) traced)
      @ Layers.analysis dist8
      @ Layers.serving ~seed idx
      @ Layers.gc ()
      @ Harness.no_serving_processes
  in
  { Harness.e2e; layers;
    attempted = !binaries + 2;
    failed; problems;
    extra =
      (if trace then
         ("distro.evolve_s", Json.Num (Harness.median !evolve_s)) :: program_report ()
       else []) }
