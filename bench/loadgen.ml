(* Concurrent load generator for the TCP serve protocol — the client
   side of the CI serve-load-smoke and fleet-load-smoke jobs.

     loadgen.exe --port P [--clients N] [--requests M] [--host H]
                 [--open-loop RATE] [--allow-degraded] [--expect-degraded]
                 [--min-rps R] [--max-p99-ms MS]

   Spawns N client threads, each driving M requests through one
   connection (a mix of ping / completeness / top, with every fourth
   line deliberately malformed), checking that every response
   arrives, in order, with the right id and the right ok/error
   status. Two arrival disciplines:

   - closed loop (default): each client keeps a fixed window of
     requests outstanding — maximal queue pressure, throughput-bound;
     latency is measured from each request's actual send.
   - open loop (--open-loop RATE): requests are scheduled at fixed
     aggregate RATE arrivals/sec, interleaved across clients, and
     latency is measured from the *scheduled* send time — so a server
     that stalls the senders still gets charged for the queueing delay
     it caused (no coordinated omission). Sender lateness is reported
     so an overdriven generator is visible rather than silently
     shifting the schedule.

   Latencies aggregate into an HDR-style histogram; the one-line JSON
   summary reports p50/p95/p99/max plus throughput. --max-p99-ms and
   --min-rps turn it into a CI gate. Against a fleet under failure,
   --allow-degraded accepts structured degraded/overloaded errors
   (counted separately, never as protocol errors) and
   --expect-degraded requires at least one — the shard-kill smoke
   proves degradation stayed structured. *)

let host = ref "127.0.0.1"
let port = ref 0
let clients = ref 8
let requests = ref 500
let min_rps = ref 0.0
let open_rate = ref 0.0
let max_p99_ms = ref 0.0
let allow_degraded = ref false
let expect_degraded = ref false

let speclist =
  [ ("--host", Arg.Set_string host, "HOST server address (127.0.0.1)");
    ("--port", Arg.Set_int port, "PORT server port (required)");
    ("--clients", Arg.Set_int clients, "N concurrent connections (8)");
    ("--requests", Arg.Set_int requests, "M requests per connection (500)");
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
      " accept degraded/overloaded errors (counted separately)" );
    ( "--expect-degraded",
      Arg.Set expect_degraded,
      " fail unless at least one degraded/overloaded response arrived" )
  ]

module Json = Core.Query.Json
module Histogram = Core.Perf.Histogram

let request ~client ~i =
  let id = (client * 1_000_000) + i in
  match i mod 4 with
  | 0 -> Printf.sprintf {|{"op":"ping","id":%d}|} id
  | 1 ->
    Printf.sprintf {|{"op":"completeness","syscalls":[%d,%d,%d],"id":%d}|}
      (i mod 64) ((i * 3) mod 64) ((i * 11) mod 64) id
  | 2 -> Printf.sprintf {|{"op":"top","n":5,"id":%d}|} id
  | _ -> Printf.sprintf {|{"op":"bogus-%d","id":%d}|} i id

(* every fourth request is an unknown op: the server must answer it
   with a structured error, never drop the line or the connection *)
let expect_ok i = i mod 4 <> 3

let error_kind v =
  match Json.member "error" v with
  | Some e -> (
    match Json.member "kind" e with Some (Json.Str k) -> Some k | _ -> None)
  | None -> None

let is_shed = function Some ("degraded" | "overloaded") -> true | _ -> false

(* Validate one response line. Returns [true] on a protocol
   violation; structured shedding under --allow-degraded bumps
   [degraded] instead. *)
let check ~client ~i ~degraded line =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "client %d response %d: %s\n%!" client i msg;
        true)
      fmt
  in
  match Json.parse line with
  | Error msg -> fail "unparseable response: %s" msg
  | Ok v -> (
    let id_bad =
      match Json.member "id" v with
      | Some (Json.Num f) ->
        let want = (client * 1_000_000) + i in
        if int_of_float f <> want then
          fail "out of order: id %d, wanted %d" (int_of_float f) want
        else false
      | _ -> fail "missing id"
    in
    if id_bad then true
    else
      match Json.member "ok" v with
      | Some (Json.Bool true) ->
        if expect_ok i then false else fail "ok but expected an error"
      | Some (Json.Bool false) ->
        let kind = error_kind v in
        if is_shed kind then begin
          (* structured shedding: acceptable under --allow-degraded
             whatever the request was (even the bogus op can be shed
             before it is looked at) *)
          if !allow_degraded then begin
            incr degraded;
            false
          end
          else fail "unexpected %s error" (Option.get kind)
        end
        else if expect_ok i then
          fail "error response (kind %s), expected ok"
            (Option.value ~default:"?" kind)
        else false
      | _ -> fail "missing ok field")

type client_result = {
  errors : int ref;
  degraded : int ref;
  hist : Histogram.t;
  mutable max_late_s : float;  (* open loop: worst send lateness *)
}

let new_result () =
  {
    errors = ref 0;
    degraded = ref 0;
    hist = Histogram.create ();
    max_late_s = 0.0;
  }

(* Both channels share one fd, so a client closes only [oc] (which
   flushes first): a second close through [ic] could hit the same fd
   number just reused by another client thread's socket. *)
let connect () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string !host, !port));
  (* one small frame per exchange: Nagle would serialize the whole
     run on delayed ACKs *)
  (try Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error _ -> ());
  (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let observe_s r dt = Histogram.observe r.hist (int_of_float (dt *. 1e9))

(* Closed loop: keep [window] requests outstanding, measure from the
   actual send. *)
let run_client_closed ~client ~n r =
  let ic, oc = connect () in
  let window = 64 in
  let send_t = Array.make (max n 1) 0.0 in
  let sent = ref 0 and rcvd = ref 0 in
  while !rcvd < n do
    while !sent < n && !sent - !rcvd < window do
      send_t.(!sent) <- Unix.gettimeofday ();
      output_string oc (request ~client ~i:!sent);
      output_char oc '\n';
      incr sent
    done;
    flush oc;
    let line = input_line ic in
    let t = Unix.gettimeofday () in
    if check ~client ~i:!rcvd ~degraded:r.degraded line then incr r.errors;
    observe_s r (t -. send_t.(!rcvd));
    incr rcvd
  done;
  close_out_noerr oc

(* Open loop: slot [k] of the aggregate schedule fires [k * period]
   after [t0]; client [c] owns every [clients]-th slot. The period is
   held in integer nanoseconds and slot offsets are exact integer
   multiples of it, computed relative to [t0] — the old
   [t0 +. k /. rate] float schedule anchored sub-millisecond slot
   times to an epoch-sized base, where a double keeps only ~0.5 us,
   and re-accumulated the rounding into every slot. Latency is
   charged from the scheduled time, so server-induced sender stalls
   count. *)
let run_client_open ~client ~n ~rate ~t0 r =
  let ic, oc = connect () in
  let period_ns = Int64.of_float (1e9 /. rate) in
  let sched_ns j =
    Int64.mul (Int64.of_int (client + (j * !clients))) period_ns
  in
  let since_t0_ns () =
    Int64.of_float ((Unix.gettimeofday () -. t0) *. 1e9)
  in
  let reader =
    Thread.create
      (fun () ->
        try
          for j = 0 to n - 1 do
            let line = input_line ic in
            let lat_ns = Int64.sub (since_t0_ns ()) (sched_ns j) in
            if check ~client ~i:j ~degraded:r.degraded line then
              incr r.errors;
            Histogram.observe r.hist (Int64.to_int (Int64.max 0L lat_ns))
          done
        with End_of_file | Sys_error _ ->
          incr r.errors;
          Printf.eprintf "client %d: connection closed early\n%!" client)
      ()
  in
  for j = 0 to n - 1 do
    let target = sched_ns j in
    let now = since_t0_ns () in
    if Int64.compare target now > 0 then
      Thread.delay (Int64.to_float (Int64.sub target now) /. 1e9);
    let late =
      Int64.to_float (Int64.sub (since_t0_ns ()) target) /. 1e9
    in
    if late > r.max_late_s then r.max_late_s <- late;
    output_string oc (request ~client ~i:j);
    output_char oc '\n';
    flush oc
  done;
  Thread.join reader;
  close_out_noerr oc

let () =
  Arg.parse speclist
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "loadgen --port P [--clients N] [--requests M] [--open-loop RATE]";
  if !port = 0 then (
    prerr_endline "loadgen: --port is required";
    exit 2);
  let results = Array.init !clients (fun _ -> new_result ()) in
  let t0 = Unix.gettimeofday () +. 0.05 (* let every sender reach the line *) in
  let threads =
    List.init !clients (fun client ->
        Thread.create
          (fun () ->
            let r = results.(client) in
            try
              if !open_rate > 0.0 then
                run_client_open ~client ~n:!requests ~rate:!open_rate ~t0 r
              else run_client_closed ~client ~n:!requests r
            with e ->
              incr r.errors;
              Printf.eprintf "client %d died: %s\n%!" client
                (Printexc.to_string e))
          ())
  in
  List.iter Thread.join threads;
  let dt = Unix.gettimeofday () -. t0 in
  let total = !clients * !requests in
  let bad = Array.fold_left (fun acc r -> acc + !(r.errors)) 0 results in
  let shed = Array.fold_left (fun acc r -> acc + !(r.degraded)) 0 results in
  let max_late =
    Array.fold_left (fun acc r -> Float.max acc r.max_late_s) 0.0 results
  in
  let hist = Histogram.create () in
  Array.iter (fun r -> Histogram.merge_into ~into:hist r.hist) results;
  let s = Histogram.summary hist in
  let ms ns = ns /. 1e6 in
  let rps = float_of_int total /. dt in
  Printf.printf
    "{\"mode\": \"%s\", \"clients\": %d, \"requests\": %d, \"errors\": %d, \
     \"degraded\": %d, \"seconds\": %.3f, \"throughput_rps\": %.1f, \
     \"offered_rps\": %.1f, \"max_send_late_ms\": %.1f, \
     \"lat_p50_ms\": %.3f, \"lat_p95_ms\": %.3f, \"lat_p99_ms\": %.3f, \
     \"lat_max_ms\": %.3f}\n"
    (if !open_rate > 0.0 then "open" else "closed")
    !clients total bad shed dt rps
    (if !open_rate > 0.0 then !open_rate else rps)
    (max_late *. 1e3)
    (ms s.Histogram.h_p50) (ms s.Histogram.h_p95) (ms s.Histogram.h_p99)
    (ms s.Histogram.h_max);
  if bad > 0 then exit 1;
  if !expect_degraded && shed = 0 then (
    prerr_endline
      "loadgen: expected at least one degraded/overloaded response, saw none";
    exit 1);
  if !min_rps > 0.0 && rps < !min_rps then (
    Printf.eprintf "loadgen: throughput %.1f rps below floor %.1f\n" rps
      !min_rps;
    exit 1);
  if !max_p99_ms > 0.0 && ms s.Histogram.h_p99 > !max_p99_ms then (
    Printf.eprintf "loadgen: p99 latency %.1f ms above gate %.1f ms\n"
      (ms s.Histogram.h_p99) !max_p99_ms;
    exit 1)
