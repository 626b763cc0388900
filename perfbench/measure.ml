(* Timing, statistics, the correctness gate and the metric table shared by
   the workloads. *)

let now = Unix.gettimeofday

(* [timed f] runs [f] and returns its result, host seconds and the words it
   allocated on the minor heap. [Gc.minor_words] is exact and repeats
   bit-for-bit for the same code path, unlike the major/promoted counters,
   whose accounting depends on when collections happen. *)
let timed f =
  let m0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let m1 = Gc.minor_words () in
  (r, t1 -. t0, m1 -. m0)

let median = function
  | [] -> invalid_arg "median: empty"
  | l ->
      let a = Array.of_list (List.sort compare l) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let geomean = function
  | [] -> invalid_arg "geomean: empty"
  | l ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 l
        /. float_of_int (List.length l))

let sum l = List.fold_left ( +. ) 0.0 l
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Peak major heap of this process. Each run executes one workload in a
   fresh process, so the whole peak is attributable to that workload. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Correctness gate. Every checked output counts as attempted; a mismatch
   counts as failed and is reported with the row or request that produced
   it. Determinism drift is a failure too, but is counted on its own so it
   is never confused with host-time noise. *)
let attempted = ref 0
let failed = ref 0
let drifts = ref 0

(* [tally ~checked ~wrong what]: [checked] outputs were checked, [wrong]
   of them were incorrect. *)
let tally ~checked ~wrong what =
  attempted := !attempted + checked;
  if wrong > 0 then begin
    failed := !failed + wrong;
    Printf.eprintf "perfbench: FAILED %s\n%!" what
  end

let check ok fmt =
  Printf.ksprintf (fun what -> tally ~checked:1 ~wrong:(if ok then 0 else 1) what) fmt

(* [same ~what reference d] checks that a repetition's digest of simulated
   outputs and exact counts equals the first one seen for [what]. *)
let same ~what reference d =
  if not (String.equal reference d) then begin
    incr drifts;
    incr failed;
    Printf.eprintf "perfbench: DETERMINISM DRIFT in %s\n  first: %s\n  now:   %s\n%!"
      what reference d
  end

(* Running fold of every digest the run produced, printed at the end so
   two runs of one seed (traced or not) can be compared by eye or diff. *)
let run_digest = Buffer.create 1024
let note_digest d = Buffer.add_string run_digest d

type kind = End_to_end | Per_layer

let metrics : (kind * string * string * float) list ref = ref []
let emit kind name unit_ value = metrics := (kind, name, unit_, value) :: !metrics
