(* The two serving workloads. Each sets up a world, maps it into real
   `lapis serve` or `lapis fleet --slice` processes, and drives them
   through a warm-up, rounds of two fixed open-loop rates and
   closed-loop saturation, and a rate-ladder bisection. *)

module P = Core.Query.Protocol
module Json = Core.Query.Json
module G = Core.Distro.Generator
module Pipeline = Core.Db.Pipeline
module Query = Core.Query.Engine
module Serve = Core.Query.Serve
module Snapshot = Core.Db.Snapshot

(* The world both serving workloads map. *)
let serve_packages = 600
let setups = Batch.setups
let shards = 2

type rates = { lo : float; hi : float; ladder_lo : float; ladder_hi : float }

(* The fixed rates sit at about 20% and 55% of each front's ladder
   result on a 2-core host; the ladders bracket it. *)
let mix_rates = { lo = 5_000.0; hi = 15_000.0; ladder_lo = 10_000.0; ladder_hi = 80_000.0 }
let fleet_rates = { lo = 1_000.0; hi = 3_000.0; ladder_lo = 2_000.0; ladder_hi = 12_000.0 }
let ladder_step = 1.15
let p99_limit_ms = 5.0
let window = 16
let max_late_ms = 1.0

(* Phase lengths. A fixed warm-up comes first (the server's heap and
   caches settle over the first seconds). The run's seconds then go
   to [n_rounds] interleaved rounds of the low rate, the high rate and
   saturation, so slow drift on a shared host reaches all three alike
   and each reports a median over rounds, and to the ladder probes. *)
let warm_s = 2.0
let n_rounds = 5
let lo_share = 0.30
let hi_share = 0.30
let sat_share = 0.24
let probe_share = 0.04

(* --- processes ------------------------------------------------------- *)

let lapis_exe = "_build/default/bin/lapis.exe"

type proc = { pid : int; log : string }

(* Children to reap, and the fleet's shards (its children, ours to
   check on) so nothing outlives the run. *)
let children : int list ref = ref []
let grandchildren : int list ref = ref []

let finished pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let gone pid =
  (not (Procfs.alive pid))
  ||
  match Procfs.read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | s -> (
    match String.rindex_opt s ')' with
    | Some i when i + 2 < String.length s -> s.[i + 2] = 'Z'
    | _ -> false)
  | exception Sys_error _ -> true

let rec poll ~until deadline =
  if until () then true
  else if Unix.gettimeofday () > deadline then false
  else begin
    Unix.sleepf 0.01;
    poll ~until deadline
  end

let kill pid signal = try Unix.kill pid signal with Unix.Unix_error _ -> ()

(* SIGINT asks for the graceful stop; SIGKILL follows if it hangs. *)
let stop pid =
  if List.mem pid !children then begin
    kill pid Sys.sigint;
    if not (poll ~until:(fun () -> finished pid) (Unix.gettimeofday () +. 10.0))
    then begin
      kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid)
    end;
    children := List.filter (( <> ) pid) !children
  end

let stop_grandchildren () =
  List.iter
    (fun pid ->
      if not (poll ~until:(fun () -> gone pid) (Unix.gettimeofday () +. 5.0)) then begin
        kill pid Sys.sigkill;
        ignore (poll ~until:(fun () -> gone pid) (Unix.gettimeofday () +. 5.0))
      end)
    !grandchildren;
  grandchildren := []

let cleanup () =
  List.iter stop !children;
  stop_grandchildren ()

let spawn ~log args =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out; Unix.close null)
      (fun () -> Unix.create_process lapis_exe (Array.of_list (lapis_exe :: args)) null out out)
  in
  children := pid :: !children;
  { pid; log }

(* The log lines starting with [prefix], once [count] of them exist. *)
let await_lines p ~prefix ~count =
  let lines () =
    match Procfs.read_file p.log with
    | s ->
      List.filter
        (fun l -> String.length l >= String.length prefix
                  && String.sub l 0 (String.length prefix) = prefix)
        (String.split_on_char '\n' s)
    | exception Sys_error _ -> []
  in
  let ok =
    poll
      ~until:(fun () ->
        if finished p.pid then begin
          children := List.filter (( <> ) p.pid) !children;
          failwith (Printf.sprintf "%s exited during start-up; see %s" lapis_exe p.log)
        end;
        List.length (lines ()) >= count)
      (Unix.gettimeofday () +. 60.0)
  in
  if not ok then failwith (Printf.sprintf "no %S line in %s within 60 s" prefix p.log);
  lines ()

(* The port in a "... on 127.0.0.1:PORT ..." log line. *)
let port_in line =
  let i = String.index line ':' + 1 in
  let j = ref i in
  while !j < String.length line && line.[!j] >= '0' && line.[!j] <= '9' do incr j done;
  int_of_string (String.sub line i (!j - i))

(* Ready means answering: one ping over a fresh connection. *)
let ping port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let msg = "{\"op\":\"ping\"}\n" in
      ignore (Unix.write_substring fd msg 0 (String.length msg));
      let b = Bytes.create 256 in
      let n = Unix.read fd b 0 256 in
      if n <= 0 || not (String.contains (Bytes.sub_string b 0 n) '\n') then
        failwith (Printf.sprintf "port %d did not answer a ping" port))

(* [n] consecutive free loopback ports; the fleet binds its router on
   the first and its shards on the rest. *)
let free_ports n =
  let st = Random.State.make_self_init () in
  let bindable p =
    let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close s)
      (fun () ->
        try
          Unix.setsockopt s Unix.SO_REUSEADDR true;
          Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, p));
          true
        with Unix.Unix_error _ -> false)
  in
  let rec pick tries =
    if tries = 0 then failwith "no free block of loopback ports";
    let p = 20_000 + Random.State.int st 10_000 in
    if List.for_all bindable (List.init n (fun i -> p + i)) then p else pick (tries - 1)
  in
  pick 100

(* --- set-up ---------------------------------------------------------- *)

type front = {
  port : int;
  procs : (string * int) list;  (* role, pid: "server" | "router" | "shard" *)
  shard_ports : int list;
}

type world = {
  heavy : (Core.Distro.Package.distribution * Pipeline.analyzed * Query.t) option;
  gen_s : float;
  pipe : Layers.pipe;
  index_s : float;
  image_s : float;
  image_bytes : int;
}

let build_world ~seed ~dir i =
  let config = { G.default_config with n_packages = serve_packages; seed } in
  let dist, gen_s =
    Trace.span "distro.generate" (fun () -> Layers.time (fun () -> G.generate ~config ()))
  in
  let analyzed, pipe = Layers.pipeline dist in
  let idx, index_s =
    Trace.span "query.index" (fun () ->
        Layers.time (fun () -> Query.index analyzed.Pipeline.store))
  in
  let source_key =
    Snapshot.source_key ~seed ~n_packages:serve_packages
      ~total_installs:config.G.total_installs ()
  in
  let img, image_s =
    Trace.span "query.image_encode" (fun () ->
        Layers.time (fun () ->
            match Query.to_image_string ~seed ~source_key idx with
            | Ok s -> s
            | Error _ -> failwith "image encode failed"))
  in
  let path = Filename.concat dir (Printf.sprintf "world-%d.img" i) in
  Out_channel.with_open_bin path (fun oc -> output_string oc img);
  ( path,
    { heavy = Some (dist, analyzed, idx); gen_s; pipe; index_s; image_s;
      image_bytes = String.length img } )

let start_server ~dir ~image i =
  let p = spawn ~log:(Filename.concat dir (Printf.sprintf "serve-%d.log" i))
      [ "serve"; "--snapshot"; image; "--tcp"; "0" ] in
  let port = port_in (List.hd (await_lines p ~prefix:"# serving" ~count:1)) in
  ping port;
  { port; procs = [ ("server", p.pid) ]; shard_ports = [] }

let start_fleet ~dir ~image i =
  let base = free_ports (shards + 1) in
  let p = spawn ~log:(Filename.concat dir (Printf.sprintf "fleet-%d.log" i))
      [ "fleet"; "--snapshot"; image; "--tcp"; string_of_int base;
        "--shards"; string_of_int shards; "--slice" ] in
  ignore (await_lines p ~prefix:"# fleet serving" ~count:1);
  let shard_pids =
    List.map
      (fun l -> int_of_string (List.nth (String.split_on_char ' ' l) 3))
      (await_lines p ~prefix:"# shard pid" ~count:shards)
  in
  grandchildren := shard_pids @ !grandchildren;
  ping base;
  { port = base;
    procs = ("router", p.pid) :: List.map (fun s -> ("shard", s)) shard_pids;
    shard_ports = List.init shards (fun i -> base + 1 + i) }

let stop_front f =
  List.iter (fun (_, pid) -> stop pid) f.procs;
  stop_grandchildren ()

(* --- streams --------------------------------------------------------- *)

let json_stream ~seed idx =
  let mix = Pools.serve_mix ~seed idx in
  let idless = Array.map (fun rq -> Json.to_string (P.json_of_request { P.rq_id = None; rq_op = rq })) mix.Pools.reqs in
  let expected =
    Array.map
      (fun rq -> Harness.json_expected (Serve.handle_request idx { P.rq_id = None; rq_op = rq }))
      mix.Pools.reqs
  in
  let slot id = mix.Pools.stream.(id mod Pools.stream_length) in
  ( mix,
    { Loadgen.framing = Loadgen.Lines;
      request = (fun id -> Harness.splice_id id idless.(slot id) ^ "\n");
      check =
        (fun id line ->
          match Harness.check_json_line ~id ~expected:expected.(slot id) line with
          | Ok () -> Loadgen.Right
          | Error m -> Loadgen.Wrong m);
      stats_request = Loadgen.json_stats_request;
      stats_of = Loadgen.json_stats_of } )

let bin_verdict ~check body =
  match P.Bin.decode_response body with
  | Error m -> Loadgen.Wrong ("undecodable response: " ^ m)
  | Ok { P.rs_result = Error e; _ } when Loadgen.refused_kind e.P.e_kind ->
    Loadgen.Refused e.P.e_kind
  | Ok r -> (match check r with Ok () -> Loadgen.Right | Error m -> Loadgen.Wrong m)

let bin_stream ~request ~check =
  { Loadgen.framing = Loadgen.Frames;
    request;
    check = (fun id body -> bin_verdict ~check:(check id) body);
    stats_request = Loadgen.bin_stats_request;
    stats_of = Loadgen.bin_stats_of }

let scatter_stream sc idx =
  let expected =
    Array.mapi (fun i s -> Query.eval_syscalls ~phase:sc.Pools.phase_of.(i) idx s) sc.Pools.subsets
  in
  let req id =
    let i = Pools.scatter_slot id in
    (sc.Pools.subsets.(i), sc.Pools.phase_of.(i), expected.(i))
  in
  bin_stream
    ~request:(fun id ->
      let syscalls, phase, _ = req id in
      P.Bin.encode_request
        { P.rq_id = Some (Json.Num (float_of_int id)); rq_op = P.Completeness { syscalls; phase } })
    ~check:(fun id r ->
      let syscalls, phase, expected = req id in
      Harness.check_completeness ~id ~phase ~n_syscalls:(List.length syscalls) ~expected
        ~tol:1e-12 r)

(* The scatter stream sent straight to one shard as its own partial. *)
let partial_stream sc idx ~lo ~hi =
  let req id =
    let i = Pools.scatter_slot id in
    (sc.Pools.subsets.(i), sc.Pools.phase_of.(i))
  in
  bin_stream
    ~request:(fun id ->
      let syscalls, phase = req id in
      P.Bin.encode_request
        { P.rq_id = Some (Json.Num (float_of_int id));
          rq_op = P.Partial_completeness { syscalls; phase; lo; hi } })
    ~check:(fun id r ->
      let syscalls, phase = req id in
      Harness.check_partial ~id
        ~expected:(Query.eval_syscalls_partial ~phase idx syscalls ~lo ~hi)
        ~tol:1e-12 r)

(* --- measurement ----------------------------------------------------- *)

let p50 ph = Harness.percentile (Loadgen.ms ph.Loadgen.lat) 0.5
let p99 ph = Harness.percentile (Loadgen.ms ph.Loadgen.lat) 0.99

let cpu_of procs =
  ("client", Procfs.self_cpu_s ())
  :: List.map (fun (role, pid) -> (role, Procfs.cpu_s pid)) procs

let ctx_of procs = List.map (fun (role, pid) -> (role, Procfs.ctx_switches pid)) procs
let diff after before = List.map2 (fun (r, a) (_, b) -> (r, a -. b)) after before
let add a b = List.map2 (fun (r, x) (_, y) -> (r, x +. y)) a b

let by_role role l =
  List.fold_left (fun acc (r, v) -> if r = role then acc +. v else acc) 0.0 l

let serving_cpu cpu = List.fold_left (fun a (r, v) -> if r = "client" then a else a +. v) 0.0 cpu

type round = {
  lo : Loadgen.phase;
  lo_ref : Loadgen.phase option;  (* traced runs: the same phase untraced *)
  hi : Loadgen.phase;
  sat : Loadgen.phase;
  cpu : (string * float) list;  (* seconds per role over [hi] *)
  ctx : (string * float) list;
}

type measured = {
  warm : Loadgen.phase;
  rounds : round list;
  probes : Loadgen.phase list;
  max_rate : float option;
  stats0 : Core.Query.Protocol.stats_reply;
  stats_end : Core.Query.Protocol.stats_reply;
  queue_max : float;
}

let measure ~trace ~seconds ~(rates : rates) ~procs client =
  let phase rate share = Loadgen.open_loop client ~rate ~seconds:(seconds *. share) in
  let per_round share = share /. float_of_int n_rounds in
  let warm = Loadgen.open_loop client ~rate:rates.hi ~seconds:warm_s in
  let stats0 = Loadgen.stats client in
  let queue_max = ref 0.0 in
  let sample =
    if not trace then None
    else
      Some
        ( 0.05,
          fun body ->
            match client.Loadgen.stream.Loadgen.stats_of body with
            | Some s -> queue_max := Float.max !queue_max (Loadgen.stat_gauge s "queue_depth")
            | None -> () )
  in
  let round _ =
    let lo = phase rates.lo (per_round lo_share) in
    let lo_ref =
      if not trace then None
      else begin
        Trace.enabled := false;
        let u = phase rates.lo (per_round lo_share) in
        Trace.enabled := true;
        Some u
      end
    in
    let cpu0 = cpu_of procs and ctx0 = ctx_of procs in
    let hi =
      Loadgen.open_loop ?sample client ~rate:rates.hi
        ~seconds:(seconds *. per_round hi_share)
    in
    let cpu = diff (cpu_of procs) cpu0 and ctx = diff (ctx_of procs) ctx0 in
    let sat = Loadgen.closed_loop client ~window ~seconds:(seconds *. per_round sat_share) in
    { lo; lo_ref; hi; sat; cpu; ctx }
  in
  let rounds = List.init n_rounds round in
  let probes = ref [] in
  let max_rate, _ =
    Harness.bisect
      (Harness.ladder ~lo:rates.ladder_lo ~hi:rates.ladder_hi ~step:ladder_step)
      ~passes:(fun rate ->
        let ph = phase rate probe_share in
        probes := ph :: !probes;
        Harness.probe_passes ~p99_limit_ms ~p99_ms:(p99 ph)
          ~failed:(ph.Loadgen.wrong + ph.Loadgen.refused) ~offered:rate
          ~achieved:(Loadgen.achieved ph))
  in
  let stats_end = Loadgen.stats client in
  { warm; rounds; probes = List.rev !probes; max_rate; stats0; stats_end;
    queue_max = !queue_max }

(* The direct-shard phase of a traced fleet run: the scatter stream
   sent straight to each shard as its own partial, at the low rate. *)
let direct_shards sc ~seconds ~(rates : rates) idx ports =
  List.map
    (fun port ->
      let st =
        let c = Loadgen.create ~ports:[ port ] (partial_stream sc idx ~lo:0 ~hi:0) in
        Fun.protect ~finally:(fun () -> Loadgen.close c) (fun () -> Loadgen.stats c)
      in
      let lo = int_of_float (Loadgen.stat_gauge st "slice_lo") in
      let hi = int_of_float (Loadgen.stat_gauge st "slice_hi") in
      let c = Loadgen.create ~ports:[ port ] (partial_stream sc idx ~lo ~hi) in
      Fun.protect
        ~finally:(fun () -> Loadgen.close c)
        (fun () ->
          let ph =
            Loadgen.open_loop c ~rate:rates.lo
              ~seconds:(seconds *. lo_share /. float_of_int n_rounds)
          in
          (st, ph, c.Loadgen.wrong_total)))
    ports

let describe name (p : Loadgen.phase) =
  Printf.eprintf
    "#   %-12s offered %7.0f/s achieved %7.0f/s p50 %7.3f ms p99 %7.3f ms late p99 %6.3f ms\n"
    name p.Loadgen.offered (Loadgen.achieved p) (p50 p) (p99 p)
    (Harness.percentile (Loadgen.ms p.Loadgen.late) 0.99)

let phase_json name (p : Loadgen.phase) =
  ( name,
    Json.Obj
      [ ("offered_per_s", Json.Num p.Loadgen.offered);
        ("achieved_per_s", Json.Num (Loadgen.achieved p));
        ("sent", Json.Num (float_of_int p.Loadgen.sent));
        ("p50_ms", Json.Num (p50 p));
        ("p99_ms", Json.Num (p99 p));
        ("refused", Json.Num (float_of_int p.Loadgen.refused)) ] )

type kind = Mix | Fleet

let run kind ~seed ~seconds ~trace ~dir =
  let rates = match kind with Mix -> mix_rates | Fleet -> fleet_rates in
  (* A traced run traces from the start; only the reference phases,
     which price the tracing itself, run untraced. *)
  Trace.enabled := trace;
  let setup i =
    let image, w = build_world ~seed ~dir i in
    let f =
      match kind with
      | Mix -> start_server ~dir ~image i
      | Fleet -> start_fleet ~dir ~image i
    in
    (w, f)
  in
  (* every set-up builds the same world; only the last one is kept *)
  let runs =
    List.init setups (fun i ->
        let (w, f), s = Layers.time (fun () -> setup i) in
        if i < setups - 1 then stop_front f;
        ((if i < setups - 1 then { w with heavy = None } else w), f, s))
  in
  let w, front, _ = List.nth runs (setups - 1) in
  let worlds = List.map (fun (w, _, _) -> w) runs in
  let setup_s = Harness.median_by (fun (_, _, s) -> s) runs in
  let dist, analyzed, idx = Option.get w.heavy in
  let mix, scatter, stream =
    match kind with
    | Mix ->
      let mix, s = json_stream ~seed idx in
      (Some mix, None, s)
    | Fleet ->
      let sc = Pools.scatter ~seed idx in
      (None, Some sc, scatter_stream sc idx)
  in
  let client = Loadgen.create ~ports:[ front.port; front.port ] stream in
  let m =
    Fun.protect
      ~finally:(fun () -> Loadgen.close client)
      (fun () -> measure ~trace ~seconds ~rates ~procs:front.procs client)
  in
  let rss = List.map (fun (role, pid) -> (role, Procfs.rss_mb pid)) front.procs in
  let threads =
    List.map (fun (role, pid) -> (role, float_of_int (Procfs.threads pid))) front.procs
  in
  let direct =
    match kind with
    | Fleet when trace ->
      direct_shards (Option.get scatter) ~seconds ~rates idx front.shard_ports
    | _ -> []
  in
  stop_front front;
  let rs = m.rounds in
  List.iteri
    (fun i r ->
      describe (Printf.sprintf "lo %d" i) r.lo;
      describe (Printf.sprintf "hi %d" i) r.hi;
      describe (Printf.sprintf "sat %d" i) r.sat)
    rs;
  List.iteri (fun i p -> describe (Printf.sprintf "ladder %d" i) p) m.probes;
  (* --- correctness and validity --- *)
  let los = List.map (fun r -> r.lo) rs @ List.filter_map (fun r -> r.lo_ref) rs in
  let gated = los @ List.concat_map (fun r -> [ r.hi; r.sat ]) rs in
  let directs = List.map (fun (_, ph, _) -> ph) direct in
  let wrong =
    client.Loadgen.wrong_total + List.fold_left (fun n (_, _, w) -> n + w) 0 direct
  in
  let refused = List.fold_left (fun n p -> n + p.Loadgen.refused) 0 (m.warm :: gated) in
  let sent phases = List.fold_left (fun n p -> n + p.Loadgen.sent) 0 phases in
  let late phases =
    Harness.sorted (Array.concat (List.map (fun p -> Loadgen.ms p.Loadgen.late) phases))
  in
  (* An overdriven generator is late on most sends of every round; a
     stall of the whole host delays a few sends of one or two rounds.
     So the gate is the p90 lateness of the median round. *)
  let late_lo = Harness.median_by (fun r -> Harness.percentile (Loadgen.ms r.lo.Loadgen.late) 0.9) rs in
  let problems =
    (if wrong > 0 then
       [ Printf.sprintf "%d wrong answers; first: %s" wrong
           (Option.value ~default:"(direct shard)" client.Loadgen.first_wrong) ]
     else [])
    @ (if refused > 0 then
         [ Printf.sprintf "%d requests refused outside the ladder" refused ]
       else [])
    @
    if late_lo > max_late_ms then
      [ Printf.sprintf "the generator ran late at the low rate: median round p90 %.3f ms > %.1f ms"
          late_lo max_late_ms ]
    else []
  in
  (* --- end-to-end --- *)
  let lo_ms = Harness.median_by (fun r -> p50 r.lo) rs in
  let e2e =
    [ ("setup_s", setup_s);
      ("latency_ms", lo_ms);
      ("rss_mb", List.fold_left (fun a (_, v) -> a +. v) 0.0 rss) ]
  in
  (* --- per layer --- *)
  let layers =
    if not trace then []
    else begin
      let cpu = List.fold_left (fun acc r -> add acc r.cpu) (List.hd rs).cpu (List.tl rs) in
      let ctx = List.fold_left (fun acc r -> add acc r.ctx) (List.hd rs).ctx (List.tl rs) in
      let hi_sent = float_of_int (sent (List.map (fun r -> r.hi) rs)) in
      let hi_ok = float_of_int (List.fold_left (fun n r -> n + r.hi.Loadgen.ok) 0 rs) in
      let share_of role = 100.0 *. by_role role cpu /. Float.max 1e-9 (List.fold_left (fun a (_, v) -> a +. v) 0.0 cpu) in
      let per_req role = by_role role ctx /. Float.max 1.0 hi_sent in
      let late_all = late (List.map (fun r -> r.lo) rs @ List.map (fun r -> r.hi) rs) in
      let late_n = Array.fold_left (fun a v -> if v > max_late_ms then a + 1 else a) 0 late_all in
      let kind_metrics =
        match kind with
        | Mix ->
          let m_ = Option.get mix in
          let completeness_p50 =
            Harness.median
              (List.map
                 (fun r ->
                   Harness.percentile
                     (Loadgen.ms ~keep:(fun id -> Pools.is_completeness (Pools.mix_req m_ id))
                        r.lo.Loadgen.lat)
                     0.5)
                 rs)
          in
          let gauge k = Loadgen.stat_gauge m.stats_end k -. Loadgen.stat_gauge m.stats0 k in
          let hits = gauge "cache_hits" and misses = gauge "cache_misses" in
          [ ("server.cache_hit_ratio", if hits +. misses = 0.0 then 0.0 else hits /. (hits +. misses));
            ("server.ctx_switches_per_req", per_req "server");
            ("server.threads", by_role "server" threads);
            ("server.queue_depth_max", m.queue_max);
            ("server.rss_mb", by_role "server" rss);
            ( "server.eval_p50_share_pct",
              100.0 *. Loadgen.stat_p50_ns m.stats_end "serve:completeness" /. 1e6
              /. Float.max 1e-9 completeness_p50 ) ]
        | Fleet ->
          let shard_stats = List.map (fun (st, _, _) -> st) direct in
          let sum f = List.fold_left (fun a st -> a +. f st) 0.0 shard_stats in
          let hits = sum (fun s -> Loadgen.stat_gauge s "cache_hits") in
          let misses = sum (fun s -> Loadgen.stat_gauge s "cache_misses") in
          (* every routed request scatters one partial to each shard;
             the shards' own histograms count the ones that arrived
             alone, the router's gauge the coalesced frames *)
          let partials = float_of_int (shards * sent (m.warm :: gated @ m.probes)) in
          let alone =
            sum (fun s -> float_of_int (Loadgen.stat_count s "serve:partial-completeness"))
          in
          let frames = alone +. Loadgen.stat_gauge m.stats_end "batches" in
          let slower f = List.fold_left (fun a x -> Float.max a (f x)) 0.0 in
          let direct_p50 = slower (fun (_, ph, _) -> p50 ph) direct in
          let shard_eval_ms =
            slower (fun s -> Loadgen.stat_p50_ns s "serve:partial-completeness" /. 1e6) shard_stats
          in
          [ ("server.cache_hit_ratio", if hits +. misses = 0.0 then 0.0 else hits /. (hits +. misses));
            ("router.ctx_switches_per_req", per_req "router");
            ("shard.ctx_switches_per_req", per_req "shard");
            ("router.queue_depth_max", m.queue_max);
            ("router.msgs_per_batch", if frames = 0.0 then 0.0 else partials /. frames);
            ("router.shed", Loadgen.stat_gauge m.stats_end "shed");
            ("router.rss_mb", by_role "router" rss);
            ("shard.rss_mb", by_role "shard" rss);
            ("shard.eval_p50_share_pct", 100.0 *. shard_eval_ms /. Float.max 1e-9 lo_ms);
            ("router.overhead_share_pct", 100.0 *. (lo_ms -. direct_p50) /. Float.max 1e-9 lo_ms) ]
      in
      Harness.no_serving_processes
      @ [ (* pooled: /proc CPU clocks tick at 10 ms, too coarse for one round *)
          ("cpu_us_per_op", serving_cpu cpu /. Float.max 1.0 hi_ok *. 1e6);
          ("distro.generate_s", Harness.median_by (fun w -> w.gen_s) worlds);
          ("query.index_s", Harness.median_by (fun w -> w.index_s) worlds);
          ("query.image_encode_s", Harness.median_by (fun w -> w.image_s) worlds);
          ("query.image_bytes", float_of_int w.image_bytes);
          ("client.cpu_share_pct", share_of "client");
          ("server.cpu_share_pct", share_of "server");
          ("router.cpu_share_pct", share_of "router");
          ("shard.cpu_share_pct", share_of "shard");
          ("client.hi_lo_p50_ratio", Harness.median_by (fun r -> p50 r.hi) rs /. Float.max 1e-9 lo_ms);
          ("client.p99_p50_ratio", Harness.median_by (fun r -> p99 r.lo) rs /. Float.max 1e-9 lo_ms);
          ("client.sat_qps", Harness.median_by (fun r -> Loadgen.achieved r.sat) rs);
          ("client.max_rate_qps", Option.value ~default:0.0 m.max_rate);
          ( "client.late_share_pct",
            100.0 *. float_of_int late_n /. float_of_int (max 1 (Array.length late_all)) );
          ( "trace.overhead_pct",
            100.0
            *. ((lo_ms /. Float.max 1e-9 (Harness.median_by (fun r -> p50 (Option.get r.lo_ref)) rs))
               -. 1.0) ) ]
      @ kind_metrics
      @ Layers.pipeline_metrics (List.map (fun w -> w.pipe) worlds)
      @ Layers.analysis dist
      @ Layers.serving ~seed idx
      @ (let snap = Snapshot.of_analyzed analyzed in Layers.delta ~base:snap snap)
      @ Layers.gc ()
    end
  in
  Trace.enabled := false;
  { Harness.e2e; layers;
    attempted = sent (m.warm :: gated @ m.probes @ directs);
    failed = wrong + refused;
    problems;
    extra =
      (if not trace then []
       else
         [ ( "phases",
             Json.Obj
               (List.concat
                  (List.mapi
                     (fun i r ->
                       [ phase_json (Printf.sprintf "lo%d" i) r.lo;
                         phase_json (Printf.sprintf "hi%d" i) r.hi;
                         phase_json (Printf.sprintf "sat%d" i) r.sat ])
                     rs)
               @ List.mapi (fun i p -> phase_json (Printf.sprintf "ladder%d" i) p) m.probes
               @ List.mapi (fun i p -> phase_json (Printf.sprintf "direct_shard%d" i) p) directs) );
           ("client.gen_late_lo_p90_ms", Json.Num late_lo);
           ( "server_stats",
             Json.Arr
               (List.map
                  (fun s -> P.json_of_response { P.rs_id = None; rs_result = Ok (P.Stats_r s) })
                  (m.stats_end :: List.map (fun (st, _, _) -> st) direct)) ) ]
         @ Batch.program_report ()) }

let serve_mix = run Mix
let fleet_scatter = run Fleet
