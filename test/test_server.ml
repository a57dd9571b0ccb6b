(* Tests for the concurrent TCP server: several simultaneous clients
   with interleaved valid and malformed requests, per-connection
   response ordering, pipelined bursts in both codecs answered
   byte-for-byte like the uncached evaluator, an idle client that must
   not starve the others, and a clean graceful shutdown that answers
   everything already sent. Everything runs against an ephemeral port
   ([~port:0]) on the shared small corpus; the last case spawns the
   built `lapis serve --watch` and republishes its image under load. *)

module Json = Core.Query.Json
module P = Core.Query.Protocol
module Server = Core.Query.Server
module Serve = Core.Query.Serve
module Frontend = Core.Query.Frontend
module Engine = Core.Query.Engine

let env = lazy (Core.Study.Env.create_small ())
let index () = (Lazy.force env).Core.Study.Env.index

let start_exn ?workers () =
  let config = { Server.default with workers } in
  match Server.start ~config (index ()) with
  | Ok srv -> srv
  | Error msg -> Alcotest.failf "server start: %s" msg

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let parse_exn s =
  match Json.parse s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "parse %S: %s" s msg

let is_ok v =
  match Json.member "ok" v with Some (Json.Bool b) -> b | _ -> false

let id_of v =
  match Json.member "id" v with
  | Some (Json.Num f) -> int_of_float f
  | _ -> Alcotest.failf "no id in %s" (Json.to_string v)

(* One client conversation: send [reqs] (already newline-free JSON
   lines), read exactly as many response lines, return them parsed. *)
let converse port reqs =
  let _fd, ic, oc = connect port in
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    reqs;
  flush oc;
  let resps = List.map (fun _ -> parse_exn (input_line ic)) reqs in
  (* one close for the fd both channels share: a second one could hit
     the fd number another client thread's socket just received *)
  close_out_noerr oc;
  resps

let test_single_client () =
  let srv = start_exn ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let resps =
        converse (Server.port srv)
          [ {|{"op":"ping","id":1}|};
            {|{"op":"completeness","syscalls":[0,1,2],"id":2}|};
            "this is not json";
            {|{"op":"stats","id":4}|} ]
      in
      match resps with
      | [ a; b; c; d ] ->
        Alcotest.(check bool) "ping ok" true (is_ok a);
        Alcotest.(check int) "ping id" 1 (id_of a);
        Alcotest.(check bool) "completeness ok" true (is_ok b);
        Alcotest.(check int) "completeness id" 2 (id_of b);
        Alcotest.(check bool) "malformed answered, not dropped" false
          (is_ok c);
        Alcotest.(check bool) "stats ok after bad line" true (is_ok d);
        Alcotest.(check int) "stats id" 4 (id_of d);
        (* requests are answered on their reader: there is no queue to
           report, but the process's own memory is *)
        let gauge k =
          match Json.member k d with
          | Some (Json.Num f) -> f
          | _ -> Alcotest.failf "stats lacks %s" k
        in
        Alcotest.(check bool) "no queue gauge" true
          (Json.member "queue_capacity" d = None);
        Alcotest.(check int) "workers gauge" 2 (int_of_float (gauge "workers"));
        Alcotest.(check bool) "heap words" true (gauge "gc_heap_words" > 0.0);
        Alcotest.(check bool) "top heap at least heap" true
          (gauge "gc_top_heap_words" >= gauge "gc_heap_words");
        Alcotest.(check bool) "VmRSS" true (gauge "rss_kb" > 0.0)
      | l -> Alcotest.failf "expected 4 responses, got %d" (List.length l))

let test_concurrent_clients () =
  (* N clients at once, each sending a distinct interleaving of valid
     and malformed requests tagged with unique ids; every client must
     get its own responses back in send order *)
  let n_clients = 6 and per_client = 25 in
  let srv = start_exn ~workers:3 () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let port = Server.port srv in
      let results = Array.make n_clients [] in
      let errors = Array.make n_clients None in
      let run c () =
        try
          let reqs =
            List.init per_client (fun i ->
                let id = (c * 1000) + i in
                match i mod 4 with
                | 0 -> Printf.sprintf {|{"op":"ping","id":%d}|} id
                | 1 ->
                  Printf.sprintf
                    {|{"op":"completeness","syscalls":[%d,%d],"id":%d}|}
                    (i mod 40) ((i * 7) mod 40) id
                | 2 -> Printf.sprintf {|{"id":%d,"op":"explode"}|} id
                | _ -> Printf.sprintf {|{"op":"top","n":3,"id":%d}|} id)
          in
          results.(c) <- converse port reqs
        with e -> errors.(c) <- Some (Printexc.to_string e)
      in
      let threads =
        List.init n_clients (fun c -> Thread.create (run c) ())
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun c -> function
          | Some msg -> Alcotest.failf "client %d failed: %s" c msg
          | None -> ())
        errors;
      Array.iteri
        (fun c resps ->
          Alcotest.(check int)
            (Printf.sprintf "client %d response count" c)
            per_client (List.length resps);
          List.iteri
            (fun i r ->
              Alcotest.(check int)
                (Printf.sprintf "client %d response %d in order" c i)
                ((c * 1000) + i)
                (id_of r);
              (* the deliberately-unknown op comes back as a handled
                 error, everything else succeeds *)
              Alcotest.(check bool)
                (Printf.sprintf "client %d response %d status" c i)
                (i mod 4 <> 2) (is_ok r))
            resps)
        results;
      Alcotest.(check bool) "all connections counted" true
        (Server.connections_served srv >= n_clients))

let test_idle_client_no_starvation () =
  (* a connected-but-silent client holds no worker: a busy client on
     the same 1-worker server must still get answers *)
  let srv = start_exn ~workers:1 () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let port = Server.port srv in
      let idle_fd, _, _ = connect port in
      Fun.protect
        ~finally:(fun () -> (try Unix.close idle_fd with _ -> ()))
        (fun () ->
          let resps =
            converse port
              (List.init 10 (fun i ->
                   Printf.sprintf {|{"op":"ping","id":%d}|} i))
          in
          Alcotest.(check int) "busy client fully served" 10
            (List.length resps);
          List.iteri
            (fun i r -> Alcotest.(check int) "order" i (id_of r))
            resps))

let test_graceful_stop () =
  (* stop must flush queued work: send a burst, then stop from another
     thread while the client is still reading; every request that made
     it in gets an answer before the connection closes *)
  let srv = start_exn ~workers:2 () in
  let port = Server.port srv in
  let _, ic, oc = connect port in
  let n = 50 in
  for i = 0 to n - 1 do
    output_string oc (Printf.sprintf {|{"op":"ping","id":%d}|} i);
    output_char oc '\n'
  done;
  flush oc;
  let stopper = Thread.create (fun () -> Server.stop srv) () in
  let got = ref 0 in
  (try
     while !got < n do
       let r = parse_exn (input_line ic) in
       Alcotest.(check int) "ordered during shutdown" !got (id_of r);
       incr got
     done
   with End_of_file -> ());
  Thread.join stopper;
  Alcotest.(check int) "every queued request answered" n !got;
  (* idempotent: a second stop and a wait both return immediately *)
  Server.stop srv;
  Server.wait srv;
  close_out_noerr oc

let test_cache_consistency () =
  (* the shared LRU must not leak one client's id into another's
     response for the same canonical request *)
  let srv = start_exn ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let port = Server.port srv in
      let q id =
        Printf.sprintf {|{"op":"completeness","syscalls":[0,1],"id":%d}|} id
      in
      let r1 = List.hd (converse port [ q 101 ]) in
      let r2 = List.hd (converse port [ q 202 ]) in
      Alcotest.(check int) "first id" 101 (id_of r1);
      Alcotest.(check int) "second id (cache hit rewrites id)" 202
        (id_of r2);
      let v = function
        | Json.Num f -> f
        | _ -> Alcotest.fail "no completeness value"
      in
      let field r =
        match Json.member "completeness" r with
        | Some x -> v x
        | None -> Alcotest.fail "completeness missing"
      in
      Alcotest.(check bool) "identical payload" true
        (Float.equal (field r1) (field r2)))

(* --- pipelined bursts --------------------------------------------------- *)

(* What the server must send for [msg]: the uncached evaluator's
   response, encoded in the message's codec. *)
let uncached msg = Frontend.reply (Serve.handle_request (index ())) msg

(* Request [i] of a burst: every op, cache-friendly repeats, and the
   error paths — unknown API, unknown op. *)
let burst_op i =
  let subsets = [| [ 0; 1; 2 ]; []; [ 5; 9; 60 ]; [ 7 ]; [ 0; 1; 2; 3; 4; 447 ] |] in
  let phase = [| Engine.All; Engine.Init; Engine.Serving |].(i mod 3) in
  match i mod 13 with
  | 0 | 1 -> P.Ping
  | 2 -> P.Importance { api = (if i mod 4 = 2 then "read" else "mmap"); phase }
  | 3 -> P.Completeness { syscalls = subsets.(i mod 5); phase }
  | 4 ->
    P.Partial_completeness
      { syscalls = subsets.(i mod 5); phase; lo = i mod 50; hi = 200 }
  | 5 -> P.Top (i mod 4)
  | 6 -> P.Dependents { api = "read"; limit = Some (i mod 3) }
  | 7 -> P.Dependents { api = "syscall:0"; limit = None }
  | 8 -> P.Importance { api = "not-an-api"; phase }
  | 9 -> P.Unknown "explode"
  | 10 when i mod 100 = 10 -> P.Stats
  | _ -> P.Completeness { syscalls = subsets.((i / 13) mod 5); phase }

(* The malformed messages a burst mixes in, one codec each. *)
let bad_line i =
  match i mod 3 with
  | 0 -> "this is not json"
  | 1 -> Printf.sprintf {|{"op":"top","n":"many","id":%d}|} i
  | _ -> Printf.sprintf {|{"id":%d}|} i

let bad_frame i =
  if i mod 2 = 0 then "\x0a\x00" (* a retired tag *)
  else "\x05\x01" (* a completeness frame cut off inside its id *)

type sent = { wire : string; msg : Frontend.msg; live : bool }

(* [n] messages for one connection; every 17th is malformed. Stats
   answers are live, so only their id and status can be checked. *)
let burst ?(op = burst_op) codec ~first n =
  List.init n (fun k ->
      let i = first + k in
      let id = Some (Json.Num (float_of_int i)) in
      let live = k mod 17 <> 16 && op i = P.Stats in
      match codec with
      | P.Json_lines ->
        let line =
          if k mod 17 = 16 then bad_line i
          else Json.to_string (P.json_of_request { P.rq_id = id; rq_op = op i })
        in
        { wire = line ^ "\n"; msg = Frontend.Line line; live }
      | P.Binary ->
        let payload =
          if k mod 17 = 16 then bad_frame i
          else
            let f = P.Bin.encode_request { P.rq_id = id; rq_op = op i } in
            String.sub f 5 (String.length f - 5)
        in
        { wire = P.Bin.frame payload; msg = Frontend.Frame payload; live })

let write_all fd s =
  let off = ref 0 in
  while !off < String.length s do
    off := !off + Unix.write_substring fd s !off (String.length s - !off)
  done

(* One reply off the wire, as the complete bytes the server wrote. *)
let read_reply codec ic =
  match codec with
  | P.Json_lines -> input_line ic ^ "\n"
  | P.Binary ->
    (match P.Bin.input_frame ic with
     | Ok payload -> P.Bin.frame payload
     | Error _ -> Alcotest.fail "unreadable reply frame")

let decode_reply codec bytes =
  match codec with
  | P.Json_lines ->
    (match P.response_of_json (parse_exn bytes) with
     | Ok r -> r
     | Error e -> Alcotest.failf "undecodable reply %S: %s" bytes e)
  | P.Binary ->
    (match P.Bin.decode_response (String.sub bytes 5 (String.length bytes - 5)) with
     | Ok r -> r
     | Error e -> Alcotest.failf "undecodable reply frame: %s" e)

let check_reply codec label (s : sent) got =
  if s.live then begin
    let r = decode_reply codec got in
    let want = match s.msg with
      | Frontend.Line l -> (Result.get_ok (P.request_of_json (parse_exn l))).P.rq_id
      | Frontend.Frame p -> (Result.get_ok (P.Bin.decode_request p)).P.rq_id
      | Frontend.Broken _ -> None
    in
    if r.P.rs_id <> want || Result.is_error r.P.rs_result then
      Alcotest.failf "%s: stats reply %S" label got
  end
  else
    let want = uncached s.msg in
    if not (String.equal got want) then
      Alcotest.failf "%s: got %S, want %S" label got want

(* Write [msgs] on one connection from a second thread (so neither
   side's socket buffer can fill and stall both), and read back one
   reply per message. *)
let pipeline codec port msgs =
  let fd, ic, _ = connect port in
  let payload = String.concat "" (List.map (fun s -> s.wire) msgs) in
  let writer =
    Thread.create
      (fun () ->
        try write_all fd payload
        with Unix.Unix_error _ -> ())
      ()
  in
  let replies = List.map (fun _ -> read_reply codec ic) msgs in
  Thread.join writer;
  (fd, ic, replies)

let cache_gauge port k =
  let r = List.hd (converse port [ {|{"op":"stats"}|} ]) in
  match Json.member k r with
  | Some (Json.Num f) -> int_of_float f
  | _ -> Alcotest.failf "stats lacks %s" k

let test_pipelined_burst () =
  (* one connection per codec, 500 requests each, on one cached
     server: replies come back in send order and byte-for-byte what
     the uncached evaluator encodes, hits included *)
  let srv = start_exn ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let port = Server.port srv in
      List.iter
        (fun (codec, name) ->
          let msgs = burst codec ~first:0 500 in
          let fd, ic, replies = pipeline codec port msgs in
          List.iteri
            (fun k (s, got) ->
              check_reply codec (Printf.sprintf "%s reply %d" name k) s got)
            (List.combine msgs replies);
          (match codec with
           | P.Binary ->
             (* an unframeable byte ends the stream with one error *)
             write_all fd "\xff";
             (match (decode_reply codec (read_reply codec ic)).P.rs_result with
              | Error e ->
                Alcotest.(check string) "broken stream kind" P.parse_error e.P.e_kind
              | Ok _ -> Alcotest.fail "a broken stream was answered ok")
           | P.Json_lines -> ());
          Unix.close fd)
        [ (P.Json_lines, "json"); (P.Binary, "binary") ];
      Alcotest.(check bool) "the bursts hit the cache" true
        (cache_gauge port "cache_hits" > 500))

(* Serve.answer with a cache: the first call fills the entry under
   another id, the second is a hit. *)
let prop_hit_bytes =
  let gen =
    QCheck2.Gen.(
      quad (int_bound 12_000)
        (oneof
           [ return None;
             map (fun n -> Some (Json.Num (float_of_int n))) (int_bound 1_000_000);
             map (fun s -> Some (Json.Str s)) (string_size (int_bound 8)) ])
        (oneofl [ P.Json_lines; P.Binary ])
        bool)
  in
  QCheck2.Test.make ~count:300 ~name:"a cache hit's bytes equal a fresh encode" gen
    (fun (i, id, codec, warm_with_id) ->
      let idx = index () in
      let cache = Core.Query.Lru.create ~capacity:8 in
      let rq_op = burst_op i in
      let warm_id = if warm_with_id then Some (Json.Str "warm") else None in
      ignore (Serve.answer ~cache idx codec { P.rq_id = warm_id; rq_op });
      let request = { P.rq_id = id; rq_op } in
      let hit = Serve.answer ~cache idx codec request in
      rq_op = P.Stats
      || String.equal hit (P.encode_response codec (Serve.handle_request idx request)))

let test_concurrent_then_stop () =
  (* three domains, six connections: every pipelined answer is right.
     Then six fresh connections with small receive buffers each send
     1,000 requests whose replies (64-row [top]s and full [dependents]
     lists, megabytes per connection) outrun every socket buffer, and
     the server is stopped while its readers are stalled mid-burst on
     writes: everything already sent is still answered, and only then
     does each connection close *)
  let n_clients = 6 in
  let srv = start_exn ~workers:3 () in
  let port = Server.port srv in
  let run_clients ?rcvbuf ?op per_client ~eof ~between =
    let errors = Array.make n_clients None in
    let conns =
      List.init n_clients (fun c ->
          let codec = if c mod 2 = 0 then P.Json_lines else P.Binary in
          let msgs = burst ?op codec ~first:(c * 1000) per_client in
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Option.iter (Unix.setsockopt_int fd Unix.SO_RCVBUF) rcvbuf;
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          write_all fd (String.concat "" (List.map (fun s -> s.wire) msgs));
          (c, codec, msgs, fd, Unix.in_channel_of_descr fd))
    in
    between ();
    let readers =
      List.map
        (fun (c, codec, msgs, fd, ic) ->
          Thread.create
            (fun () ->
              (try
                 List.iteri
                   (fun k s ->
                     check_reply codec
                       (Printf.sprintf "client %d reply %d" c k)
                       s (read_reply codec ic))
                   msgs;
                 (* a stopped server closes once everything is answered *)
                 if eof then
                   match input_char ic with
                   | exception End_of_file -> ()
                   | _ -> errors.(c) <- Some "a reply nobody asked for"
               with e -> errors.(c) <- Some (Printexc.to_string e));
              Unix.close fd)
            ())
        conns
    in
    List.iter Thread.join readers;
    Array.iteri
      (fun c -> function
        | Some msg -> Alcotest.failf "client %d: %s" c msg
        | None -> ())
      errors
  in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      run_clients 150 ~eof:false ~between:ignore;
      let stopper = ref None in
      run_clients 1000 ~rcvbuf:8192 ~eof:true
        ~op:(fun i ->
          if i mod 2 = 0 then P.Top 64
          else P.Dependents { api = "read"; limit = None })
        ~between:(fun () ->
          (* let the readers fill the small buffers and stall *)
          Thread.delay 0.2;
          stopper := Some (Thread.create (fun () -> Server.stop srv) ()));
      Option.iter Thread.join !stopper;
      Alcotest.(check bool) "all connections counted" true
        (Server.connections_served srv >= 2 * n_clients))

let test_bind_host_must_be_an_address () =
  (* a host name is refused, never bound as loopback *)
  match Server.start ~config:{ Server.default with host = "db1" } (index ()) with
  | Ok srv ->
    Server.stop srv;
    Alcotest.fail "a server bound host \"db1\""
  | Error msg ->
    Alcotest.(check string) "message"
      {|bind host "db1" is not an IPv4 address|} msg

(* --- hot reload ---------------------------------------------------- *)

(* A deliberately different world: one package using only syscall 7,
   so after a reload the top-1 answer flips from the corpus ranking to
   syscall 7 — observable through the same canonicalized request. *)
let other_index () =
  let module Store = Core.Db.Store in
  let module Api = Core.Apidb.Api in
  let apis = Api.Set.singleton (Api.Syscall 7) in
  let store =
    Store.build ~total_installs:1000 ~bins:[]
      ~packages:
        [ {
            Store.pr_name = "only-seven";
            pr_installs = 900;
            pr_prob = 0.9;
            pr_deps = [];
            pr_essential = false;
            pr_apis = apis;
            pr_apis_elf = apis;
            pr_init = apis;
            pr_serving = Api.Set.empty;
          } ]
  in
  Core.Query.Engine.index store

let top1_nr r =
  match Json.member "syscalls" r with
  | Some (Json.Arr (first :: _)) ->
    (match Json.member "nr" first with
     | Some (Json.Num f) -> int_of_float f
     | _ -> Alcotest.fail "no nr in top row")
  | _ -> Alcotest.failf "no syscalls in %s" (Json.to_string r)

let test_reload_swaps_answers () =
  (* the reload must change the answer AND invalidate the response
     cache: the same canonical request was cached against the old
     index, so a stale hit would return the old top-1 *)
  let srv = start_exn ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let port = Server.port srv in
      let q id = Printf.sprintf {|{"op":"top","n":1,"id":%d}|} id in
      let before = List.hd (converse port [ q 1 ]) in
      Alcotest.(check bool) "pre-reload ok" true (is_ok before);
      Alcotest.(check int) "epoch starts at 0" 0 (Server.epoch_id srv);
      (* warm the cache again to make a stale hit as likely as possible *)
      ignore (converse port [ q 2 ]);
      Server.reload srv (other_index ());
      Alcotest.(check int) "reload bumps the epoch" 1 (Server.epoch_id srv);
      let after = List.hd (converse port [ q 3 ]) in
      Alcotest.(check bool) "post-reload ok" true (is_ok after);
      Alcotest.(check int) "post-reload answer is the new world's" 7
        (top1_nr after);
      if top1_nr before = 7 then
        Alcotest.fail "old index already answered 7; the swap is untested")

let test_reload_under_load () =
  (* clients hammer the server while the index is swapped back and
     forth: no dropped connection, no protocol error, per-connection
     order preserved, every request answered from some epoch *)
  let n_clients = 4 and per_client = 40 and reloads = 6 in
  let srv = start_exn ~workers:3 () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let port = Server.port srv in
      let results = Array.make n_clients [] in
      let errors = Array.make n_clients None in
      let run c () =
        try
          let reqs =
            List.init per_client (fun i ->
                let id = (c * 1000) + i in
                match i mod 3 with
                | 0 -> Printf.sprintf {|{"op":"ping","id":%d}|} id
                | 1 -> Printf.sprintf {|{"op":"top","n":2,"id":%d}|} id
                | _ ->
                  Printf.sprintf
                    {|{"op":"completeness","syscalls":[0,1,7],"id":%d}|} id)
          in
          results.(c) <- converse port reqs
        with e -> errors.(c) <- Some (Printexc.to_string e)
      in
      let threads =
        List.init n_clients (fun c -> Thread.create (run c) ())
      in
      let alt = other_index () and orig = index () in
      for r = 1 to reloads do
        Thread.delay 0.01;
        Server.reload srv (if r mod 2 = 1 then alt else orig)
      done;
      List.iter Thread.join threads;
      Array.iteri
        (fun c -> function
          | Some msg ->
            Alcotest.failf "client %d dropped across a reload: %s" c msg
          | None -> ())
        errors;
      Alcotest.(check int) "every reload swapped an epoch" reloads
        (Server.epoch_id srv);
      Array.iteri
        (fun c resps ->
          Alcotest.(check int)
            (Printf.sprintf "client %d fully answered" c)
            per_client (List.length resps);
          List.iteri
            (fun i r ->
              Alcotest.(check int)
                (Printf.sprintf "client %d response %d in order" c i)
                ((c * 1000) + i)
                (id_of r);
              Alcotest.(check bool)
                (Printf.sprintf "client %d response %d ok" c i)
                true (is_ok r))
            resps)
        results)

(* --- a real `lapis serve --watch` process ----------------------------

   The built CLI serving an image file under load while that file is
   republished: a good image, a damaged one, then the original. Each
   publish is a temp file plus rename, as `evolve --publish` does. The
   child's stderr goes to a file the test polls; every wait has a
   deadline, and the child is SIGKILLed and reaped however the test
   ends. *)

let lapis_exe = "../bin/lapis.exe"

let image_exn idx =
  match Engine.to_image_string ~seed:42 ~source_key:"test" idx with
  | Ok s -> s
  | Error e -> Alcotest.failf "to_image_string: %a" Core.Db.Snapshot.pp_error e

let publish path data =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> output_string oc data);
  Unix.rename tmp path

(* kind of the k-th request on a load connection: ping, completeness,
   top, and an unknown op that must come back as a structured error *)
let load_request ~id k =
  match k mod 4 with
  | 0 -> Printf.sprintf {|{"op":"ping","id":%d}|} id
  | 1 ->
    Printf.sprintf {|{"op":"completeness","syscalls":[0,1,7,%d],"id":%d}|}
      (k mod 60) id
  | 2 -> Printf.sprintf {|{"op":"top","n":5,"id":%d}|} id
  | _ -> Printf.sprintf {|{"op":"bogus-%d","id":%d}|} k id

(* Pipeline windows of 16 requests on one connection until [stop];
   [answered] counts the replies checked so far. Any wrong reply or a
   dropped connection ends the loop with the reason. *)
let load_connection port ~base ~stop ~answered =
  try
    let _, ic, oc = connect port in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
    let k = ref 0 in
    while not (Atomic.get stop) do
      for i = !k to !k + 15 do
        output_string oc (load_request ~id:(base + i) i);
        output_char oc '\n'
      done;
      flush oc;
      for i = !k to !k + 15 do
        let r = parse_exn (input_line ic) in
        if id_of r <> base + i then
          failwith (Printf.sprintf "reply %d out of order" (base + i));
        if is_ok r <> (i mod 4 <> 3) then
          failwith (Printf.sprintf "reply %d: wrong status" (base + i))
      done;
      k := !k + 16;
      Atomic.set answered !k
    done;
    None
  with e -> Some (Printexc.to_string e)

let test_serve_process_watch () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = Filename.temp_dir "lapis_serve" "" in
  let live = Filename.concat dir "live.idx" in
  let log = Filename.concat dir "serve.err" in
  let original = image_exn (index ()) in
  publish live original;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close devnull; Unix.close err)
    @@ fun () ->
    Unix.create_process lapis_exe
      [| lapis_exe; "serve"; "--snapshot"; live; "--tcp"; "0"; "--watch" |]
      devnull devnull err
  in
  let status = ref None in
  let reap flags =
    match Unix.waitpid flags pid with
    | 0, _ -> ()
    | _, st -> status := Some st
  in
  let stop = Atomic.make false in
  let threads = ref [] in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      if !status = None then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap []
      end;
      (* the child is gone, so a load thread still reading sees EOF *)
      List.iter Thread.join !threads;
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      Sys.rmdir dir)
  @@ fun () ->
  (* complete lines only: the last one may still be half written *)
  let stderr_lines () =
    In_channel.with_open_bin log In_channel.input_all
    |> String.split_on_char '\n'
    |> List.rev |> List.tl |> List.rev
  in
  let wait_line what pred =
    let deadline = Unix.gettimeofday () +. 10.0 in
    let rec go () =
      let lines = stderr_lines () in
      match List.find_opt pred lines with
      | Some l -> l
      | None ->
        reap [ Unix.WNOHANG ];
        if !status <> None || Unix.gettimeofday () > deadline then
          Alcotest.failf "%s: no line within 10 s (child %s); stderr:\n%s"
            what
            (if !status = None then "running" else "exited")
            (String.concat "\n" lines);
        Thread.delay 0.02;
        go ()
    in
    go ()
  in
  let serving = wait_line "serving" (String.starts_with ~prefix:"# serving") in
  let port =
    Scanf.sscanf serving "# serving line-delimited JSON on 127.0.0.1:%d"
      Fun.id
  in
  let answered = Array.init 2 (fun _ -> Atomic.make 0) in
  let errors = Array.make 2 None in
  threads :=
    List.init 2 (fun c ->
        Thread.create
          (fun () ->
            errors.(c) <-
              load_connection port ~base:(c * 1_000_000) ~stop
                ~answered:answered.(c))
          ());
  let _, probe_ic, probe_oc = connect port in
  let probe_id = ref 0 in
  let top1 () =
    incr probe_id;
    output_string probe_oc
      (Printf.sprintf {|{"op":"top","n":1,"id":%d}|} !probe_id);
    output_char probe_oc '\n';
    flush probe_oc;
    let r = parse_exn (input_line probe_ic) in
    Alcotest.(check bool) "probe ok" true (is_ok r);
    top1_nr r
  in
  let reloaded epoch =
    String.equal (Printf.sprintf "# reloaded %s (epoch %d)" live epoch)
  in
  let original_top = top1 () in
  if original_top = 7 then
    Alcotest.fail "the original world already answers 7; the swap is untested";
  publish live (image_exn (other_index ()));
  ignore (wait_line "epoch 1" (reloaded 1));
  Alcotest.(check int) "epoch 1 answers the new world" 7 (top1 ());
  publish live (String.sub original 0 (String.length original / 2));
  ignore
    (wait_line "failed reload"
       (String.starts_with ~prefix:("# reload of " ^ live ^ " failed")));
  Alcotest.(check int) "a failed reload keeps the old index" 7 (top1 ());
  publish live original;
  ignore (wait_line "epoch 2" (reloaded 2));
  Alcotest.(check int) "epoch 2 answers the original again" original_top
    (top1 ());
  (* both load connections answer a full window after the last reload *)
  let after = Array.map Atomic.get answered in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    Array.exists2 (fun a n -> Atomic.get a <= n) answered after
    && Array.for_all Option.is_none errors
    && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.01
  done;
  Atomic.set stop true;
  List.iter Thread.join !threads;
  threads := [];
  Array.iteri
    (fun c -> function
      | Some msg -> Alcotest.failf "load connection %d: %s" c msg
      | None -> ())
    errors;
  Array.iteri
    (fun c n ->
      if Atomic.get answered.(c) <= n then
        Alcotest.failf "load connection %d stalled after the last reload" c)
    after;
  close_out_noerr probe_oc;
  Unix.kill pid Sys.sigint;
  let deadline = Unix.gettimeofday () +. 10.0 in
  while !status = None && Unix.gettimeofday () < deadline do
    reap [ Unix.WNOHANG ];
    if !status = None then Thread.delay 0.02
  done;
  (match !status with
   | Some (Unix.WEXITED 0) -> ()
   | Some (Unix.WEXITED n) -> Alcotest.failf "serve exited %d on SIGINT" n
   | Some (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
     Alcotest.failf "serve ended by signal %d on SIGINT" s
   | None -> Alcotest.fail "serve still running 10 s after SIGINT");
  Alcotest.(check (option string)) "last stderr line"
    (Some "# served 3 connections")
    (List.nth_opt (List.rev (stderr_lines ())) 0)

let () =
  Alcotest.run "server"
    [ ( "tcp",
        [ Alcotest.test_case "single client" `Quick test_single_client;
          Alcotest.test_case "concurrent clients" `Quick
            test_concurrent_clients;
          Alcotest.test_case "idle client no starvation" `Quick
            test_idle_client_no_starvation;
          Alcotest.test_case "graceful stop" `Quick test_graceful_stop;
          Alcotest.test_case "cache id consistency" `Quick
            test_cache_consistency;
          Alcotest.test_case "bind host must be an address" `Quick
            test_bind_host_must_be_an_address ] );
      ( "pipelined",
        [ Alcotest.test_case "500-request burst in each codec" `Quick
            test_pipelined_burst;
          Alcotest.test_case "three domains, six connections, stop mid-burst"
            `Quick test_concurrent_then_stop;
          QCheck_alcotest.to_alcotest prop_hit_bytes ] );
      ( "reload",
        [ Alcotest.test_case "swaps answers and cache" `Quick
            test_reload_swaps_answers;
          Alcotest.test_case "under concurrent load" `Quick
            test_reload_under_load;
          Alcotest.test_case "serve --watch process" `Quick
            test_serve_process_watch ] )
    ]
