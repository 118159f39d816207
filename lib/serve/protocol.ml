(** Length-prefixed JSON wire protocol (see protocol.mli). *)

module Problem = Qac_ising.Problem
module Sampler = Qac_anneal.Sampler
module Cache = Qac_embed.Cache
module Hist = Qac_diag.Hist

exception Protocol_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Protocol_error m)) fmt

(* --- JSON values ------------------------------------------------------------- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(* The shortest of %.15g, %.16g and %.17g that reads back to the same
   bits (%.17g always does), so 0.3333 stays "0.3333"; integral values
   print as integers so tickets and counters stay readable. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let rec shortest digits =
      let s = Printf.sprintf "%.*g" digits f in
      if digits = 17 || Float.equal (float_of_string s) f then s else shortest (digits + 1)
    in
    shortest 15

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | '\r' -> Buffer.add_string b "\\r"
       | '\t' -> Buffer.add_string b "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let json_to_string j =
  let b = Buffer.create 256 in
  let rec emit = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num f ->
      if Float.is_nan f || Float.abs f = infinity then
        fail "json_to_string: non-finite number"
      else Buffer.add_string b (float_repr f)
    | Str s -> escape_string b s
    | Arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
           if i > 0 then Buffer.add_char b ',';
           emit x)
        items;
      Buffer.add_char b ']'
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
           if i > 0 then Buffer.add_char b ',';
           escape_string b k;
           Buffer.add_char b ':';
           emit v)
        fields;
      Buffer.add_char b '}'
  in
  emit j;
  Buffer.contents b

(* Recursive-descent parser.  [pos] always points at the next unread byte. *)
let json_of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if !pos >= n || s.[!pos] <> c then fail "JSON: expected '%c' at byte %d" c !pos;
    advance ()
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail "JSON: bad literal at byte %d" !pos
  in
  let parse_hex4 () =
    if !pos + 4 > n then fail "JSON: truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    v
  in
  let add_utf8 b cp =
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xf0 lor (cp lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
    end
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "JSON: unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !pos >= n then fail "JSON: unterminated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'n' -> Buffer.add_char b '\n'
         | 'r' -> Buffer.add_char b '\r'
         | 't' -> Buffer.add_char b '\t'
         | 'u' ->
           let cp = parse_hex4 () in
           (* Surrogate pair: a high surrogate must be followed by \uDC00-DFFF. *)
           if cp >= 0xd800 && cp <= 0xdbff then begin
             if not (!pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u') then
               fail "JSON: lone high surrogate";
             pos := !pos + 2;
             let lo = parse_hex4 () in
             if not (lo >= 0xdc00 && lo <= 0xdfff) then
               fail "JSON: invalid low surrogate";
             add_utf8 b (0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00))
           end
           else if cp >= 0xdc00 && cp <= 0xdfff then fail "JSON: lone low surrogate"
           else add_utf8 b cp
         | c -> fail "JSON: bad escape '\\%c'" c);
        loop ()
      | c -> Buffer.add_char b c; loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let numchar c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && numchar s.[!pos] do advance () done;
    if !pos = start then fail "JSON: expected a value at byte %d" start;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "JSON: bad number at byte %d" start
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "JSON: unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Obj [] end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ()
          | Some '}' -> advance ()
          | _ -> fail "JSON: expected ',' or '}' at byte %d" !pos
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); Arr [] end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements ()
          | Some ']' -> advance ()
          | _ -> fail "JSON: expected ',' or ']' at byte %d" !pos
        in
        elements ();
        Arr (List.rev !items)
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "JSON: trailing bytes at %d" !pos;
  v

(* --- Typed accessors --------------------------------------------------------- *)

let field obj name =
  match obj with
  | Obj fields ->
    (match List.assoc_opt name fields with
     | Some v -> v
     | None -> fail "missing field %S" name)
  | _ -> fail "expected an object with field %S" name

let field_opt obj name =
  match obj with
  | Obj fields ->
    (match List.assoc_opt name fields with Some Null | None -> None | v -> v)
  | _ -> None

let as_num = function Num f -> f | _ -> fail "expected a number"
let as_int j =
  let f = as_num j in
  if Float.is_integer f then int_of_float f else fail "expected an integer"
let as_str = function Str s -> s | _ -> fail "expected a string"
let as_bool = function Bool b -> b | _ -> fail "expected a boolean"
let as_arr = function Arr l -> l | _ -> fail "expected an array"

(* --- Domain codecs ----------------------------------------------------------- *)

let problem_to_json (p : Problem.t) =
  Obj
    [ ("num_vars", Num (float_of_int p.Problem.num_vars));
      ("offset", Num p.Problem.offset);
      ("h", Arr (Array.to_list (Array.map (fun v -> Num v) p.Problem.h)));
      ( "j",
        Arr
          (Array.to_list
             (Array.map
                (fun ((i, j), v) ->
                   Arr [ Num (float_of_int i); Num (float_of_int j); Num v ])
                p.Problem.couplers)) ) ]

let problem_of_json j =
  let num_vars = as_int (field j "num_vars") in
  let offset = as_num (field j "offset") in
  let h = Array.of_list (List.map as_num (as_arr (field j "h"))) in
  let couplers =
    List.map
      (fun entry ->
         match as_arr entry with
         | [ i; jj; v ] -> ((as_int i, as_int jj), as_num v)
         | _ -> fail "coupler entries are [i, j, value]")
      (as_arr (field j "j"))
  in
  try Problem.create ~num_vars ~h ~j:couplers ~offset ()
  with Invalid_argument m -> fail "bad problem: %s" m

let sample_to_json (s : Sampler.sample) =
  Obj
    [ ( "spins",
        Arr
          (Array.to_list
             (Array.map (fun sp -> Num (float_of_int sp)) s.Sampler.spins)) );
      ("energy", Num s.Sampler.energy);
      ("num_occurrences", Num (float_of_int s.Sampler.num_occurrences)) ]

let sample_of_json j =
  { Sampler.spins = Array.of_list (List.map as_int (as_arr (field j "spins")));
    energy = as_num (field j "energy");
    num_occurrences = as_int (field j "num_occurrences") }

let response_to_json (r : Sampler.response) =
  Obj
    [ ("samples", Arr (List.map sample_to_json r.Sampler.samples));
      ("num_reads", Num (float_of_int r.Sampler.num_reads));
      ("elapsed_seconds", Num r.Sampler.elapsed_seconds);
      ("timed_out", Bool r.Sampler.timed_out) ]

let response_of_json j =
  { Sampler.samples = List.map sample_of_json (as_arr (field j "samples"));
    num_reads = as_int (field j "num_reads");
    elapsed_seconds = as_num (field j "elapsed_seconds");
    timed_out = as_bool (field j "timed_out") }

let job_to_json (job : Serve.job) =
  Obj
    [ ("id", Str job.Serve.id);
      ("problem", problem_to_json job.Serve.problem);
      ( "timeout_ms",
        match job.Serve.timeout_ms with None -> Null | Some ms -> Num ms ) ]

let job_of_json j =
  { Serve.id = as_str (field j "id");
    problem = problem_of_json (field j "problem");
    timeout_ms = Option.map as_num (field_opt j "timeout_ms") }

let status_to_json = function
  | Serve.Done -> Str "done"
  | Serve.Timed_out -> Str "timed_out"
  | Serve.Canceled -> Str "canceled"
  | Serve.Failed msg -> Obj [ ("failed", Str msg) ]

let status_of_json = function
  | Str "done" -> Serve.Done
  | Str "timed_out" -> Serve.Timed_out
  | Str "canceled" -> Serve.Canceled
  | Obj [ ("failed", Str msg) ] -> Serve.Failed msg
  | _ -> fail "bad status"

let result_to_json (r : Serve.result) =
  Obj
    [ ("id", Str r.Serve.id);
      ("status", status_to_json r.Serve.status);
      ( "response",
        match r.Serve.response with None -> Null | Some resp -> response_to_json resp );
      ("batch", Num (float_of_int r.Serve.batch));
      ("wait_seconds", Num r.Serve.wait_seconds);
      ("solve_seconds", Num r.Serve.solve_seconds) ]

let result_of_json j =
  { Serve.id = as_str (field j "id");
    status = status_of_json (field j "status");
    response = Option.map response_of_json (field_opt j "response");
    batch = as_int (field j "batch");
    wait_seconds = as_num (field j "wait_seconds");
    solve_seconds = as_num (field j "solve_seconds") }

let finite f = if Float.is_nan f || Float.abs f = infinity then 0.0 else f

let stats_to_json (stats : Shard.shard_stats array) =
  Arr
    (Array.to_list
       (Array.map
          (fun (s : Shard.shard_stats) ->
             let sv = s.Shard.serve and c = s.Shard.cache and lat = s.Shard.latency in
             Obj
               [ ("shard", Num (float_of_int s.Shard.shard));
                 ( "serve",
                   Obj
                     [ ("batches", Num (float_of_int sv.Serve.batches));
                       ("jobs_done", Num (float_of_int sv.Serve.jobs_done));
                       ("placed", Num (float_of_int sv.Serve.placed));
                       ("deferrals", Num (float_of_int sv.Serve.deferrals));
                       ("failures", Num (float_of_int sv.Serve.failures));
                       ("timeouts", Num (float_of_int sv.Serve.timeouts));
                       ("canceled", Num (float_of_int sv.Serve.canceled));
                       ("coalesced", Num (float_of_int sv.Serve.coalesced));
                       ("queue_depth", Num (float_of_int sv.Serve.queue_depth));
                       ("mean_occupancy", Num (finite sv.Serve.mean_occupancy));
                       ("jobs_per_second", Num (finite sv.Serve.jobs_per_second)) ] );
                 ( "cache",
                   Obj
                     [ ("hits", Num (float_of_int c.Cache.hits));
                       ("misses", Num (float_of_int c.Cache.misses));
                       ("evictions", Num (float_of_int c.Cache.evictions));
                       ("entries", Num (float_of_int c.Cache.entries));
                       ("store_hits", Num (float_of_int c.Cache.store_hits)) ] );
                 ( "latency",
                   Obj
                     [ ("count", Num (float_of_int (Hist.count lat)));
                       ("sum_seconds", Num (finite (Hist.sum lat)));
                       ("p50_seconds", Num (finite (Hist.p50 lat)));
                       ("p90_seconds", Num (finite (Hist.p90 lat)));
                       ("p99_seconds", Num (finite (Hist.p99 lat))) ] ) ])
          stats))

(* --- Requests and replies ---------------------------------------------------- *)

type request =
  | Submit of Serve.job
  | Submit_sat of { id : string; dimacs : string; timeout_ms : float option }
  | Poll of int
  | Cancel of int
  | Stats
  | Metrics
  | Shutdown

type reply =
  | Submitted of { ticket : int; shard : int }
  | Busy of { retry_after_ms : float }
  | Pending
  | Completed of Serve.result
  | Cancel_ok of bool
  | Stats_json of json
  | Metrics_text of string
  | Shutdown_ok
  | Error of string

let request_to_json = function
  | Submit job -> Obj [ ("op", Str "submit"); ("job", job_to_json job) ]
  | Submit_sat { id; dimacs; timeout_ms } ->
    Obj
      [ ("op", Str "submit_sat");
        ("id", Str id);
        ("dimacs", Str dimacs);
        ("timeout_ms", match timeout_ms with None -> Null | Some ms -> Num ms) ]
  | Poll ticket -> Obj [ ("op", Str "poll"); ("ticket", Num (float_of_int ticket)) ]
  | Cancel ticket ->
    Obj [ ("op", Str "cancel"); ("ticket", Num (float_of_int ticket)) ]
  | Stats -> Obj [ ("op", Str "stats") ]
  | Metrics -> Obj [ ("op", Str "metrics") ]
  | Shutdown -> Obj [ ("op", Str "shutdown") ]

let request_of_json j =
  match as_str (field j "op") with
  | "submit" -> Submit (job_of_json (field j "job"))
  | "submit_sat" ->
    Submit_sat
      { id = as_str (field j "id");
        dimacs = as_str (field j "dimacs");
        timeout_ms = Option.map as_num (field_opt j "timeout_ms") }
  | "poll" -> Poll (as_int (field j "ticket"))
  | "cancel" -> Cancel (as_int (field j "ticket"))
  | "stats" -> Stats
  | "metrics" -> Metrics
  | "shutdown" -> Shutdown
  | op -> fail "unknown op %S" op

let reply_to_json = function
  | Submitted { ticket; shard } ->
    Obj
      [ ("ok", Bool true);
        ("ticket", Num (float_of_int ticket));
        ("shard", Num (float_of_int shard)) ]
  | Busy { retry_after_ms } ->
    Obj
      [ ("ok", Bool false);
        ("error", Str "busy");
        ("retry_after_ms", Num retry_after_ms) ]
  | Pending -> Obj [ ("ok", Bool true); ("done", Bool false) ]
  | Completed r ->
    Obj [ ("ok", Bool true); ("done", Bool true); ("result", result_to_json r) ]
  | Cancel_ok b -> Obj [ ("ok", Bool true); ("canceled", Bool b) ]
  | Stats_json s -> Obj [ ("ok", Bool true); ("stats", s) ]
  | Metrics_text m -> Obj [ ("ok", Bool true); ("metrics", Str m) ]
  | Shutdown_ok -> Obj [ ("ok", Bool true); ("shutdown", Bool true) ]
  | Error msg -> Obj [ ("ok", Bool false); ("error", Str msg) ]

let reply_of_json j =
  match as_bool (field j "ok") with
  | false ->
    (match as_str (field j "error") with
     | "busy" -> Busy { retry_after_ms = as_num (field j "retry_after_ms") }
     | msg -> Error msg)
  | true ->
    (match field_opt j "ticket" with
     | Some t -> Submitted { ticket = as_int t; shard = as_int (field j "shard") }
     | None ->
       (match field_opt j "done" with
        | Some (Bool false) -> Pending
        | Some (Bool true) -> Completed (result_of_json (field j "result"))
        | Some _ -> fail "bad done flag"
        | None ->
          (match field_opt j "canceled" with
           | Some b -> Cancel_ok (as_bool b)
           | None ->
             (match field_opt j "stats" with
              | Some s -> Stats_json s
              | None ->
                (match field_opt j "metrics" with
                 | Some m -> Metrics_text (as_str m)
                 | None ->
                   (match field_opt j "shutdown" with
                    | Some (Bool true) -> Shutdown_ok
                    | _ -> fail "unrecognized reply"))))))

(* --- Framing ----------------------------------------------------------------- *)

let max_frame_len = 16 * 1024 * 1024

let write_all fd buf off len =
  let off = ref off and left = ref len in
  while !left > 0 do
    let n = Unix.write fd buf !off !left in
    off := !off + n;
    left := !left - n
  done

(* [false] on EOF before the first byte; Protocol_error on EOF mid-read. *)
let read_all fd buf len =
  let off = ref 0 in
  while !off < len do
    let n = Unix.read fd buf !off (len - !off) in
    if n = 0 then
      if !off = 0 then raise Exit else fail "connection closed mid-frame";
    off := !off + n
  done

let write_frame fd payload =
  let len = String.length payload in
  if len > max_frame_len then fail "frame too large (%d bytes)" len;
  let buf = Bytes.create (4 + len) in
  Bytes.set_int32_be buf 0 (Int32.of_int len);
  Bytes.blit_string payload 0 buf 4 len;
  write_all fd buf 0 (4 + len)

let read_frame fd =
  let header = Bytes.create 4 in
  match read_all fd header 4 with
  | exception Exit -> None
  | () ->
    let len = Int32.to_int (Bytes.get_int32_be header 0) in
    if len < 0 || len > max_frame_len then
      fail "declared frame length %d outside [0, %d]" len max_frame_len;
    let payload = Bytes.create len in
    (match read_all fd payload len with
     | exception Exit -> fail "connection closed mid-frame"
     | () -> Some (Bytes.unsafe_to_string payload))

(* --- Client helpers ---------------------------------------------------------- *)

let connect sockaddr =
  let domain = Unix.domain_of_sockaddr sockaddr in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd sockaddr
   with e ->
     Unix.close fd;
     raise e);
  fd

let call fd request =
  write_frame fd (json_to_string (request_to_json request));
  match read_frame fd with
  | None -> fail "server closed the connection"
  | Some payload -> reply_of_json (json_of_string payload)
