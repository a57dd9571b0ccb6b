(* Outside-in layer probes for traced runs: each times calls into one
   layer's public functions on the workload's own world, so every
   workload reports every layer, including the ones its end-to-end
   path leaves idle. *)

module P = Core.Query.Protocol
module Json = Core.Query.Json
module Query = Core.Query.Engine
module Serve = Core.Query.Serve
module Pkg = Core.Distro.Package
module Reader = Core.Elf.Reader
module Classify = Core.Elf.Classify
module Binary = Core.Analysis.Binary
module Resolve = Core.Analysis.Resolve
module Snapshot = Core.Db.Snapshot
module Stage = Core.Perf.Stage
module Pipeline = Core.Db.Pipeline

let time f =
  let t0 = Trace.now_ns () in
  let r = f () in
  (r, float_of_int (Trace.now_ns () - t0) /. 1e9)

(* One [Pipeline.run] with what the program itself counted during it:
   the stage clock of aggregation (no public function reaches it) and
   the resolver-memo and cross-release cache counters. *)
type pipe = {
  wall : float;
  cpu : float;
  aggregate : float;
  memo : int * int;  (* hits, misses *)
  reuse : int * int;  (* incremental hits, misses *)
}

let pipeline ?config dist =
  let c = Stage.counter in
  let m0 = (c "resolve:memo-hits", c "resolve:memo-misses") in
  let i0 = (c "incremental:hits", c "incremental:misses") in
  let agg0 = Stage.spent_s "aggregate" in
  let cpu0 = Procfs.self_cpu_s () in
  let a, wall =
    Trace.span "db.pipeline" (fun () -> time (fun () -> Pipeline.run ?config dist))
  in
  let delta (h0, m0) (h, m) = (h - h0, m - m0) in
  ( a,
    { wall;
      cpu = Procfs.self_cpu_s () -. cpu0;
      aggregate = Stage.spent_s "aggregate" -. agg0;
      memo = delta m0 (c "resolve:memo-hits", c "resolve:memo-misses");
      reuse = delta i0 (c "incremental:hits", c "incremental:misses") } )

let ratio (h, m) = if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)

let sum_pairs l = List.fold_left (fun (a, b) (h, m) -> (a + h, b + m)) (0, 0) l

let pipeline_metrics pipes =
  let domains = float_of_int (Domain.recommended_domain_count ()) in
  let med f = Harness.median_by f pipes in
  [ ("pipeline.run_s", med (fun p -> p.wall));
    ("pipeline.cpu_ratio", med (fun p -> p.cpu /. (p.wall *. domains)));
    ("program.aggregate_s", med (fun p -> p.aggregate));
    ("analysis.resolve_memo_hit_ratio", ratio (sum_pairs (List.map (fun p -> p.memo) pipes)));
    ("db.cache_hit_ratio", ratio (sum_pairs (List.map (fun p -> p.reuse) pipes))) ]

(* Parse, analyze, resolve and phase-split every distinct ELF payload
   of [dist] on one thread, as the pipeline does per binary. *)
let analysis (dist : Pkg.distribution) =
  let seen = Hashtbl.create 4096 in
  let distinct bytes =
    let d = Digest.string bytes in
    if Hashtbl.mem seen d then false
    else begin
      Hashtbl.add seen d ();
      true
    end
  in
  let libs =
    dist.Pkg.runtime @ List.map (fun (so, _, b) -> (so, b)) dist.Pkg.shared_libs
  in
  let files =
    List.concat_map
      (fun (p : Pkg.t) ->
        List.filter_map
          (fun (f : Pkg.file) ->
            match Classify.classify f.Pkg.bytes with
            | Classify.Elf_static | Classify.Elf_dynamic -> Some (true, f.Pkg.bytes)
            | Classify.Elf_shared_lib -> Some (false, f.Pkg.bytes)
            | Classify.Script _ | Classify.Data -> None)
          p.Pkg.files)
      dist.Pkg.packages
    |> List.filter (fun (_, b) -> distinct b)
  in
  let parse_all l =
    List.map
      (fun (k, b) ->
        match Reader.parse b with
        | Ok img -> (k, img)
        | Error _ -> failwith "unparseable ELF payload")
      l
  in
  let (lib_imgs, file_imgs), parse_s =
    Trace.span "elf.parse" (fun () -> time (fun () -> (parse_all libs, parse_all files)))
  in
  let (lib_bins, file_bins), binary_s =
    Trace.span "analysis.binary" (fun () ->
        time (fun () ->
            ( List.map (fun (so, img) -> (so, Binary.analyze img)) lib_imgs,
              List.map (fun (exe, img) -> (exe, Binary.analyze img)) file_imgs )))
  in
  let runtime = List.map fst dist.Pkg.runtime in
  let world =
    Resolve.make_world
      ?ld_so:(List.assoc_opt "ld-linux-x86-64.so.2" lib_bins)
      ~libc_family:(fun so -> List.mem so runtime)
      lib_bins
  in
  let totals, resolve_s =
    Trace.span "analysis.resolve" (fun () ->
        time (fun () ->
            List.map (fun (exe, bin) -> (exe, bin, Resolve.binary_footprint world bin)) file_bins))
  in
  let (), phase_s =
    Trace.span "analysis.phase" (fun () ->
        time (fun () ->
            List.iter
              (fun (exe, bin, total) ->
                if exe then ignore (Resolve.phased_footprint world bin ~total))
              totals))
  in
  [ ("elf.parse_s", parse_s);
    ("elf.parse_calls", float_of_int (List.length libs + List.length files));
    ("analysis.binary_s", binary_s);
    ("analysis.resolve_s", resolve_s);
    ("analysis.phase_s", phase_s) ]

(* Mean microseconds per call of [f] over [items], as the median of
   three passes. *)
let per_call_us items f =
  let n = Array.length items in
  let pass () =
    let (), s = time (fun () -> Array.iter f items) in
    s *. 1e6 /. float_of_int n
  in
  Harness.median [ pass (); pass (); pass () ]

let probe_n = 2000

(* The serving path's in-process layers on [idx]: JSON and binary
   codecs, uncached evaluation, and one shard's partial sweep, over
   the same streams serve-mix and fleet-scatter send. *)
let serving ~seed idx =
  let mix = Pools.serve_mix ~seed idx in
  let reqs = Array.init probe_n (fun id -> Pools.mix_req mix id) in
  let lines =
    Array.mapi (fun id rq -> Harness.json_request ~id { P.rq_id = None; rq_op = rq }) reqs
  in
  let responses =
    Array.mapi
      (fun id rq ->
        { P.rs_id = Some (Json.Num (float_of_int id)); rs_result = Serve.handle_req idx rq })
      reqs
  in
  let sc = Pools.scatter ~seed idx in
  let scat =
    Array.init probe_n (fun i -> (sc.Pools.subsets.(i), sc.Pools.phase_of.(i)))
  in
  let frames =
    Array.mapi
      (fun id (syscalls, phase) ->
        let f =
          P.Bin.encode_request
            { P.rq_id = Some (Json.Num (float_of_int id));
              rq_op = P.Completeness { syscalls; phase } }
        in
        String.sub f 5 (String.length f - 5))
      scat
  in
  let bin_responses =
    Array.mapi
      (fun id (syscalls, phase) ->
        { P.rs_id = Some (Json.Num (float_of_int id));
          rs_result =
            Ok
              (P.Completeness_r
                 { n_syscalls = List.length syscalls; phase;
                   completeness = Query.eval_syscalls ~phase idx syscalls }) })
      scat
  in
  let half = Query.n_packages idx / 2 in
  Trace.span "protocol.probe" @@ fun () ->
  [ ("protocol.json_decode_us",
     per_call_us lines (fun l ->
         match Json.parse (String.trim l) with
         | Ok j -> ignore (P.request_of_json j)
         | Error m -> failwith m));
    ("protocol.json_encode_us",
     per_call_us responses (fun r -> ignore (Json.to_string (P.json_of_response r))));
    ("query.eval_us", per_call_us reqs (fun rq -> ignore (Serve.handle_req idx rq)));
    ("protocol.bin_decode_us",
     per_call_us frames (fun f ->
         match P.Bin.decode_request f with Ok _ -> () | Error m -> failwith m));
    ("protocol.bin_encode_us",
     per_call_us bin_responses (fun r -> ignore (P.Bin.encode_response r)));
    ("query.partial_eval_us",
     per_call_us scat (fun (syscalls, phase) ->
         ignore (Query.eval_syscalls_partial ~phase idx syscalls ~lo:0 ~hi:half))) ]

(* Encoding a snapshot as a delta against [base]; for workloads with no
   earlier release the world is its own base. *)
let delta ~base snap =
  let d, s =
    Trace.span "db.delta_encode" (fun () ->
        time (fun () -> Snapshot.to_delta_string ~base snap))
  in
  [ ("db.delta_encode_s", s); ("db.delta_bytes", float_of_int (String.length d)) ]

let gc () =
  let st = Gc.quick_stat () in
  [ ("gc.major_collections", float_of_int st.Gc.major_collections);
    ("gc.top_heap_mb",
     float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0) ]
