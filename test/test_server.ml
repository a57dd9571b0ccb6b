(* Tests for the concurrent TCP server: several simultaneous clients
   with interleaved valid and malformed requests, per-connection
   response ordering, an idle client that must not starve the others,
   and a clean graceful shutdown. Everything runs against an ephemeral
   port ([~port:0]) on the shared small corpus. *)

module Json = Core.Query.Json
module Server = Core.Query.Server

let env = lazy (Core.Study.Env.create_small ())
let index () = (Lazy.force env).Core.Study.Env.index

let start_exn ?workers ?(cache_capacity = 1024) () =
  let config = { Server.default with workers; cache_capacity } in
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
        (* two workers derive the front end's minimum 128-slot queue *)
        (match Json.member "queue_capacity" d with
         | Some (Json.Num f) ->
           Alcotest.(check int) "stats queue capacity" 128 (int_of_float f)
         | _ -> Alcotest.fail "stats lacks queue_capacity")
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
  let srv = start_exn ~workers:2 ~cache_capacity:16 () in
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
  let srv = start_exn ~workers:2 ~cache_capacity:64 () in
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
  let srv = start_exn ~workers:3 ~cache_capacity:32 () in
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
            test_cache_consistency ] );
      ( "reload",
        [ Alcotest.test_case "swaps answers and cache" `Quick
            test_reload_swaps_answers;
          Alcotest.test_case "under concurrent load" `Quick
            test_reload_under_load ] )
    ]
