(* The benchmark's pure core: the metric catalog, the statistics every
   workload reports through, the open-loop schedule, the rate-ladder
   bisection, the regression-bound rule and the response checkers.
   Nothing here touches a clock, a socket or a process, so
   test_harness.ml covers all of it in milliseconds. *)

module P = Core.Query.Protocol
module Json = Core.Query.Json

(* ------------------------------------------------------------------ *)
(* Metric catalog                                                      *)
(* ------------------------------------------------------------------ *)

type better = Lower | Higher

(* Every workload reports every end-to-end metric, so each one is
   defined per workload over that workload's unit of work: a
   bytes-to-image pass (ingest), a release (evolve) or a request
   (serve-mix, fleet-scatter). README.md spells out each mapping. *)
let end_to_end =
  [ ("setup_s", "s", Lower);
    ("latency_ms", "ms", Lower);
    ("rss_mb", "MB", Lower) ]

(* Per-layer metrics, measured only by a traced run. Every metric with
   a time unit is measured on every workload (the layer probes run on
   each workload's own world); a metric of a process a workload does
   not run (router, shard, server) is a count, ratio, share or size
   and reads 0 there. cpu_us_per_op is defined per workload like the
   end-to-end metrics; it is here because on the fleet it moves with
   the host's speed by more than any allowed bound (README.md). *)
let per_layer =
  [ ("cpu_us_per_op", "us", Lower);
    ("distro.generate_s", "s", Lower);
    ("elf.parse_s", "s", Lower);
    ("elf.parse_calls", "count", Lower);
    ("analysis.binary_s", "s", Lower);
    ("analysis.resolve_s", "s", Lower);
    ("analysis.phase_s", "s", Lower);
    ("analysis.resolve_memo_hit_ratio", "ratio", Higher);
    ("pipeline.run_s", "s", Lower);
    ("pipeline.cpu_ratio", "ratio", Higher);
    ("program.aggregate_s", "s", Lower);
    ("db.cache_hit_ratio", "ratio", Higher);
    ("db.delta_encode_s", "s", Lower);
    ("db.delta_bytes", "bytes", Lower);
    ("query.index_s", "s", Lower);
    ("query.image_encode_s", "s", Lower);
    ("query.image_bytes", "bytes", Lower);
    ("query.eval_us", "us", Lower);
    ("query.partial_eval_us", "us", Lower);
    ("protocol.json_decode_us", "us", Lower);
    ("protocol.json_encode_us", "us", Lower);
    ("protocol.bin_decode_us", "us", Lower);
    ("protocol.bin_encode_us", "us", Lower);
    ("gc.major_collections", "count", Lower);
    ("gc.top_heap_mb", "MB", Lower);
    ("client.cpu_share_pct", "%", Higher);
    ("server.cpu_share_pct", "%", Lower);
    ("router.cpu_share_pct", "%", Lower);
    ("shard.cpu_share_pct", "%", Lower);
    ("server.cache_hit_ratio", "ratio", Higher);
    ("server.ctx_switches_per_req", "count", Lower);
    ("router.ctx_switches_per_req", "count", Lower);
    ("shard.ctx_switches_per_req", "count", Lower);
    ("server.threads", "count", Lower);
    ("server.queue_depth_max", "count", Lower);
    ("router.queue_depth_max", "count", Lower);
    ("router.msgs_per_batch", "count", Higher);
    ("router.shed", "count", Lower);
    ("server.rss_mb", "MB", Lower);
    ("router.rss_mb", "MB", Lower);
    ("shard.rss_mb", "MB", Lower);
    ("server.eval_p50_share_pct", "%", Lower);
    ("shard.eval_p50_share_pct", "%", Lower);
    ("router.overhead_share_pct", "%", Lower);
    ("client.hi_lo_p50_ratio", "ratio", Lower);
    ("client.p99_p50_ratio", "ratio", Lower);
    ("client.sat_qps", "1/s", Higher);
    ("client.max_rate_qps", "1/s", Higher);
    ("client.late_share_pct", "%", Lower);
    ("trace.overhead_pct", "%", Lower) ]

let unit_of name =
  List.find_map
    (fun (n, u, _) -> if n = name then Some u else None)
    (end_to_end @ per_layer)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Nearest rank on an ascending array: the smallest sample with at
   least [q] of the samples at or below it. 0 for an empty array. *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* Midpoint median (any order). *)
let median l =
  let a = sorted (Array.of_list l) in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let median_by f l = median (List.map f l)

(* Python's [statistics.quantiles(values, n=4)] (the default
   'exclusive' method), which is how run-to-run spread is judged. *)
let quartiles l =
  let d = sorted (Array.of_list l) in
  let ld = Array.length d in
  if ld < 2 then invalid_arg "quartiles: need at least two values";
  let m = ld + 1 in
  let q i =
    let j = i * m / 4 in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * 4) in
    ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)

(* Interquartile distance as a share of the median. *)
let spread l =
  let q1, q2, q3 = quartiles l in
  if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2

(* Has [cur] worsened past [base] by more than [bound] (a share of
   [base])? *)
let regressed ~better ~bound ~base ~cur =
  match better with
  | Lower -> cur > base *. (1.0 +. bound)
  | Higher -> cur < base *. (1.0 -. bound)

(* ------------------------------------------------------------------ *)
(* Open-loop schedule                                                  *)
(* ------------------------------------------------------------------ *)

(* The schedule is integer nanoseconds from the phase start: slot [k]
   is due at exactly [k * period], so no float rounding accumulates
   over a long phase. *)
let period_ns rate =
  if rate <= 0.0 then invalid_arg "period_ns: rate must be positive";
  max 1 (int_of_float (Float.round (1e9 /. rate)))

let due_ns ~period k = k * period

(* Slots due at [elapsed] ns after the start: [0 .. slots_due - 1]. *)
let slots_due ~period elapsed = if elapsed < 0 then 0 else (elapsed / period) + 1

(* Slots a phase of [duration_ns] schedules. *)
let slots_in ~period duration_ns = max 1 (duration_ns / period)

(* ------------------------------------------------------------------ *)
(* Rate ladder                                                         *)
(* ------------------------------------------------------------------ *)

(* Geometric rungs [lo, lo*step, ...] up to [hi], ascending. *)
let ladder ~lo ~hi ~step =
  if lo <= 0.0 || step <= 1.0 then invalid_arg "ladder";
  let rec go r acc =
    if r > hi *. (1.0 +. 1e-9) then List.rev acc else go (r *. step) (r :: acc)
  in
  Array.of_list (go lo [])

(* Binary search for the highest passing rung, assuming a rung passes
   whenever a higher one does. Returns that rung (if any passed) and
   every probe made, in order. *)
let bisect rungs ~passes =
  let probes = ref [] in
  let best = ref None in
  let lo = ref 0 and hi = ref (Array.length rungs - 1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let ok = passes rungs.(mid) in
    probes := (rungs.(mid), ok) :: !probes;
    if ok then begin
      best := Some rungs.(mid);
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  (!best, List.rev !probes)

(* A probe passes when its p99 meets the limit, nothing failed, and
   the server kept up with the offered rate. *)
let probe_passes ~p99_limit_ms ~p99_ms ~failed ~offered ~achieved =
  p99_ms <= p99_limit_ms && failed = 0 && achieved >= 0.99 *. offered

(* ------------------------------------------------------------------ *)
(* Response checking                                                   *)
(* ------------------------------------------------------------------ *)

(* JSON-lines requests and responses carry the id as their first
   field, so a request is the id-less canonical spelling with the id
   spliced in front, and the only correct response is the in-process
   answer's id-less spelling with the same splice. *)
let splice_id id idless =
  let n = String.length idless in
  if n < 2 || idless.[0] <> '{' then invalid_arg "splice_id: not an object";
  if n = 2 then Printf.sprintf "{\"id\":%d}" id
  else Printf.sprintf "{\"id\":%d,%s" id (String.sub idless 1 (n - 1))

let json_request ~id req =
  splice_id id (Json.to_string (P.json_of_request { req with P.rq_id = None }))
  ^ "\n"

let json_expected response =
  Json.to_string (P.json_of_response { response with P.rs_id = None })

let check_json_line ~id ~expected line =
  if String.equal line (splice_id id expected) then Ok ()
  else
    let got_id =
      match Json.parse line with
      | Ok v -> Option.bind (Json.member "id" v) Json.to_int
      | Error _ -> None
    in
    match got_id with
    | Some g when g <> id -> Error (Printf.sprintf "id %d where %d was due" g id)
    | _ -> Error (Printf.sprintf "response %S differs from %S" line expected)

(* A routed completeness answer: same id, same echoed shape, and a
   value within [tol] of the single-process one. *)
let check_completeness ~id ~phase ~n_syscalls ~expected ~tol
    (r : P.response) =
  let id_ok =
    match r.P.rs_id with
    | Some (Json.Num f) -> Float.equal f (float_of_int id)
    | _ -> false
  in
  if not id_ok then
    Error
      (Printf.sprintf "id %s where %d was due"
         (match r.P.rs_id with Some j -> Json.to_string j | None -> "none")
         id)
  else
    match r.P.rs_result with
    | Ok (P.Completeness_r c) ->
      if c.phase <> phase || c.n_syscalls <> n_syscalls then
        Error "completeness reply echoes the wrong request"
      else if Float.abs (c.completeness -. expected) > tol then
        Error
          (Printf.sprintf "completeness %.17g, single-process %.17g"
             c.completeness expected)
      else Ok ()
    | Ok _ -> Error "reply is not a completeness answer"
    | Error e -> Error (Printf.sprintf "%s: %s" e.P.e_kind e.P.e_msg)

(* The same for one shard's partial sum over [lo, hi). *)
let check_partial ~id ~expected:(num, den) ~tol (r : P.response) =
  match (r.P.rs_id, r.P.rs_result) with
  | Some (Json.Num f), Ok (P.Partial_r p) when Float.equal f (float_of_int id)
    ->
    if Float.abs (p.num -. num) > tol || not (Float.equal p.den den) then
      Error (Printf.sprintf "partial %.17g/%.17g, in-process %.17g/%.17g"
               p.num p.den num den)
    else Ok ()
  | _, Error e -> Error (Printf.sprintf "%s: %s" e.P.e_kind e.P.e_msg)
  | _ -> Error (Printf.sprintf "reply %d is not the partial sum asked for" id)

(* ------------------------------------------------------------------ *)
(* Workload reports and the result line                                *)
(* ------------------------------------------------------------------ *)

(* What one workload run measured. [layers] is filled by traced runs
   only; [extra] goes to the trace file; [problems] are the reasons a
   run is not correct (wrong answers, invalid load). *)
type report = {
  e2e : (string * float) list;
  layers : (string * float) list;
  attempted : int;
  failed : int;
  problems : string list;
  extra : (string * Json.t) list;
}

(* The serving-process metrics of a workload that runs no serving
   process: all of its CPU is the benchmark's own. A serving workload
   lists its measured values after these; the later binding wins. *)
let no_serving_processes =
  List.filter_map
    (fun (name, _, _) ->
      match String.split_on_char '.' name with
      | ("server" | "router" | "shard") :: _ -> Some (name, 0.0)
      | [ "client"; _ ] when name <> "client.cpu_share_pct" -> Some (name, 0.0)
      | _ -> None)
    per_layer
  @ [ ("client.cpu_share_pct", 100.0) ]

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

(* The one JSON object a caller reads off the last line of stdout.
   Every metric must be a finite number; a NaN would print as null. *)
let result_line r =
  let metric (name, v) =
    let u =
      match unit_of name with
      | Some u -> u
      | None -> invalid_arg ("result_line: uncatalogued metric " ^ name)
    in
    if not (Float.is_finite v) then
      invalid_arg (Printf.sprintf "result_line: %s is not finite" name);
    (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ])
  in
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool r.correct);
         ("attempted", Json.Num (float_of_int r.attempted));
         ("failed", Json.Num (float_of_int r.failed));
         ("metrics", Json.Obj (List.map metric r.metrics)) ])
