(* Open-loop load generator.  Jobs are due on a fixed schedule whatever the
   system does; each is timed from when it was due, not from when it was
   sent, so a stalled generator shows up as lateness ([sent - due]) and in
   every later job's latency instead of silently thinning the load.

   The clock, sleep, submit and poll are parameters, so tests drive the
   loop with a simulated clock. *)

type 'r record = {
  due : float;  (** scheduled offset from the start *)
  mutable sent : float;  (** when the submit began; [nan] if never sent *)
  mutable accepted : bool;  (** false: refused (Busy) or never sent *)
  mutable completed : float;  (** when the client held the result; [nan] if never *)
  mutable result : 'r option;
}

let lag r = r.sent -. r.due
let latency r = r.completed -. r.due
let is_complete r = not (Float.is_nan r.completed)

(* What a job cost its client: its latency when answered, else the whole
   wait from when it was due to when the client gave up.  Refused, failed
   and unanswered jobs so raise the tail instead of dropping out of it. *)
let waited ~give_up ~answered r = if answered then latency r else give_up -. r.due

(* Submissions take priority over polls: when the generator falls behind it
   catches up on the schedule first.  Outstanding tickets are polled as a
   round every [poll_interval] seconds.  The loop gives up [give_up]
   seconds after the start; jobs still open then stay incomplete. *)
let run ~now ~sleep ~poll_interval ~give_up ~due ~submit ~poll =
  let n = Array.length due in
  let t0 = now () in
  let clock () = now () -. t0 in
  let recs =
    Array.map
      (fun d -> { due = d; sent = nan; accepted = false; completed = nan; result = None })
      due
  in
  let next = ref 0 in
  let outstanding = Queue.create () in
  let next_poll = ref 0.0 in
  while (!next < n || not (Queue.is_empty outstanding)) && clock () < give_up do
    let t = clock () in
    if !next < n && recs.(!next).due <= t then begin
      let i = !next in
      incr next;
      recs.(i).sent <- t;
      match submit i with
      | Some ticket ->
        recs.(i).accepted <- true;
        Queue.push (i, ticket) outstanding
      | None -> ()
    end
    else if (not (Queue.is_empty outstanding)) && t >= !next_poll then begin
      let round = Queue.length outstanding in
      for _ = 1 to round do
        let ((i, ticket) as entry) = Queue.pop outstanding in
        match poll ticket with
        | Some r ->
          recs.(i).completed <- clock ();
          recs.(i).result <- Some r
        | None -> Queue.push entry outstanding
      done;
      next_poll := clock () +. poll_interval
    end
    else begin
      let wake_submit = if !next < n then recs.(!next).due else infinity in
      let wake_poll = if Queue.is_empty outstanding then infinity else !next_poll in
      let d = Float.min (Float.min wake_submit wake_poll) give_up -. clock () in
      if d > 0.0 then sleep d
    end
  done;
  recs
