(* Load generator for the TCP serve protocol — the client side of the CI
   serve-load-smoke, fleet-load-smoke and evolve-smoke jobs. It is a
   thin CLI over the benchmark's event-loop client
   (benchmark/loadgen.ml): one thread, one select loop, N loopback
   connections.

     loadgen.exe --port P [--clients N] [--seconds S] [--open-loop RATE]
                 [--allow-degraded] [--expect-degraded]
                 [--min-rps R] [--max-p99-ms MS]

   The requests are a mix of ping / completeness / top, with every
   fourth one an unknown op the server must answer with a structured
   error. Each response is checked against the head of its
   connection's queue: the right id, in order, with the right ok/error
   status. A request still unanswered 10 s after sending stops fails
   the run, so a hung server cannot stall the job past S + 10 s. Two
   arrival disciplines:

   - closed loop (default): every connection keeps 64 requests
     outstanding for S seconds; latency is measured from each
     request's actual send.
   - open loop (--open-loop RATE): exactly RATE*S requests on a fixed
     integer-ns schedule, round-robin over the connections; latency is
     charged from the *scheduled* send, so a server that stalls the
     sender is billed for the queueing it caused.

   The one-line JSON summary reports p50/p95/p99/max plus throughput.
   --max-p99-ms and --min-rps turn it into a CI gate. Against a fleet
   with a shard down, --allow-degraded accepts the structured
   degraded errors its scatters answer (counted separately, never as
   protocol errors) and --expect-degraded requires at least one. *)

module Loadgen = Lapis_bench.Loadgen
module Harness = Lapis_bench.Harness
module Json = Core.Query.Json

let port = ref 0
let clients = ref 8
let seconds = ref 1.0
let min_rps = ref 0.0
let open_rate = ref 0.0
let max_p99_ms = ref 0.0
let allow_degraded = ref false
let expect_degraded = ref false

let speclist =
  [ ("--port", Arg.Set_int port, "PORT loopback server port (required)");
    ("--clients", Arg.Set_int clients, "N concurrent connections (8)");
    ("--seconds", Arg.Set_float seconds, "S how long to send (1.0)");
    ( "--open-loop",
      Arg.Set_float open_rate,
      "RATE fixed-rate arrivals/sec aggregate (0 = closed loop)" );
    ( "--min-rps",
      Arg.Set_float min_rps,
      "RPS fail below this aggregate throughput (0 = no floor)" );
    ( "--max-p99-ms",
      Arg.Set_float max_p99_ms,
      "MS fail if p99 latency exceeds this (0 = no gate)" );
    ( "--allow-degraded",
      Arg.Set allow_degraded,
      " accept structured degraded errors, as a fleet with a shard \
       down answers (counted separately)" );
    ( "--expect-degraded",
      Arg.Set expect_degraded,
      " fail unless at least one degraded response arrived" )
  ]

(* The request kind follows the connection's own sequence number, not
   the global id: open loop sends id k on connection k mod N, so [id mod
   4] would give each connection a single kind whenever N is a multiple
   of 4. This way every connection interleaves the replies the router
   answers itself (ping, the unknown-op error) with scattered ones —
   the case the in-order id check exists to catch. *)
let kind id = id / !clients mod 4

let request id =
  (match kind id with
   | 0 -> Printf.sprintf {|{"op":"ping","id":%d}|} id
   | 1 ->
     Printf.sprintf {|{"op":"completeness","syscalls":[%d,%d,%d],"id":%d}|}
       (id mod 64) ((id * 3) mod 64) ((id * 11) mod 64) id
   | 2 -> Printf.sprintf {|{"op":"top","n":5,"id":%d}|} id
   | _ -> Printf.sprintf {|{"op":"bogus-%d","id":%d}|} id id)
  ^ "\n"

(* every fourth request is an unknown op: the server must answer it
   with a structured error, never drop the line or the connection *)
let expect_ok id = kind id <> 3

let error_kind v =
  match Json.member "error" v with
  | Some e -> (
    match Json.member "kind" e with Some (Json.Str k) -> Some k | _ -> None)
  | None -> None

let check id line : Loadgen.verdict =
  let wrong fmt =
    Printf.ksprintf
      (fun msg -> Loadgen.Wrong (Printf.sprintf "response %d: %s" id msg))
      fmt
  in
  match Json.parse line with
  | Error msg -> wrong "unparseable response: %s" msg
  | Ok v -> (
    match Json.member "id" v with
    | Some (Json.Num f) when int_of_float f <> id ->
      wrong "out of order: id %d, wanted %d" (int_of_float f) id
    | Some (Json.Num _) -> (
      match Json.member "ok" v with
      | Some (Json.Bool true) ->
        if expect_ok id then Right else wrong "ok but expected an error"
      | Some (Json.Bool false) -> (
        match error_kind v with
        | Some k when Loadgen.refused_kind k ->
          (* a structured refusal, acceptable under --allow-degraded:
             a fleet with a shard down answers degraded to every op
             that needs that shard *)
          if !allow_degraded then Refused k else wrong "unexpected %s error" k
        | kind ->
          if expect_ok id then
            wrong "error response (kind %s), expected ok"
              (Option.value ~default:"?" kind)
          else Right)
      | _ -> wrong "missing ok field")
    | _ -> wrong "missing id")

let stream =
  { Loadgen.framing = Loadgen.Lines;
    request;
    check;
    stats_request = Loadgen.json_stats_request;
    stats_of = Loadgen.json_stats_of }

let fail fmt =
  Printf.ksprintf (fun msg -> prerr_endline ("loadgen: " ^ msg); exit 1) fmt

let () =
  Arg.parse speclist
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "loadgen --port P [--clients N] [--seconds S] [--open-loop RATE]";
  if !port = 0 || !clients < 1 || !seconds <= 0.0 then begin
    prerr_endline
      "loadgen: --port is required; --clients and --seconds must be positive";
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let open_loop = !open_rate > 0.0 in
  let ports = List.init !clients (fun _ -> !port) in
  let t, ph =
    match Loadgen.create ~ports stream with
    | exception e -> fail "cannot connect: %s" (Printexc.to_string e)
    | t -> (
      Fun.protect ~finally:(fun () -> Loadgen.close t) @@ fun () ->
      match
        if open_loop then Loadgen.open_loop t ~rate:!open_rate ~seconds:!seconds
        else Loadgen.closed_loop t ~window:64 ~seconds:!seconds
      with
      | ph -> (t, ph)
      | exception e -> fail "%s" (Printexc.to_string e))
  in
  Option.iter
    (fun msg -> prerr_endline ("loadgen: " ^ msg))
    t.Loadgen.first_wrong;
  let lat = Loadgen.ms ph.Loadgen.lat in
  let pct q = Harness.percentile lat q in
  let max_late_ms = Harness.percentile (Loadgen.ms ph.Loadgen.late) 1.0 in
  let rps =
    float_of_int ph.Loadgen.sent /. Float.max 1e-9 ph.Loadgen.elapsed_s
  in
  let p99 = pct 0.99 in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("mode", Json.Str (if open_loop then "open" else "closed"));
            ("clients", Json.Num (float_of_int !clients));
            ("requests", Json.Num (float_of_int ph.Loadgen.sent));
            ("errors", Json.Num (float_of_int ph.Loadgen.wrong));
            ("degraded", Json.Num (float_of_int ph.Loadgen.refused));
            ("seconds", Json.Num ph.Loadgen.elapsed_s);
            ("throughput_rps", Json.Num rps);
            ("offered_rps", Json.Num (if open_loop then !open_rate else rps));
            ("max_send_late_ms", Json.Num max_late_ms);
            ("lat_p50_ms", Json.Num (pct 0.5));
            ("lat_p95_ms", Json.Num (pct 0.95));
            ("lat_p99_ms", Json.Num p99);
            ("lat_max_ms", Json.Num (pct 1.0)) ]));
  if ph.Loadgen.wrong > 0 then exit 1;
  if !expect_degraded && ph.Loadgen.refused = 0 then
    fail "expected at least one degraded response, saw none";
  if !min_rps > 0.0 && rps < !min_rps then
    fail "throughput %.1f rps below floor %.1f" rps !min_rps;
  if !max_p99_ms > 0.0 && p99 > !max_p99_ms then
    fail "p99 latency %.1f ms above gate %.1f ms" p99 !max_p99_ms
