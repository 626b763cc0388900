(* Word count across machine boundaries, with the profiling workflow.

   A GRP-style scan: worker threads distributed over the rack count key
   occurrences in a text served from the NFS share. The first run uses the
   naive porting (per-match updates to one global counter); the page-fault
   profiler then shows exactly which source site and which object caused
   the cross-node traffic — the workflow of §IV — and the fixed version
   runs visibly faster.

   Run with: dune exec examples/wordcount.exe *)

open Dex_core
module A = Dex_apps.App_common

let params =
  {
    Dex_apps.Grp.text_bytes = 4 * 1024 * 1024;
    key_interval = 4096;
    cpu_ns_per_byte = 10.0;
    chunk_bytes = 512 * 1024;
  }

let run variant = Dex_apps.Grp.run ~nodes:4 ~variant ~params ()

let () =
  Format.printf "== naive port (per-match global updates) ==@.";
  let initial = run A.Initial in
  Format.printf "%a@." A.pp_result initial;
  Format.printf "@.== optimized (locally staged counts) ==@.";
  let optimized = run A.Optimized in
  Format.printf "%a@." A.pp_result optimized;
  Format.printf "@.speedup from the fix: %.2fx (matches found: %Ld)@."
    (float_of_int initial.A.sim_time /. float_of_int optimized.A.sim_time)
    optimized.A.checksum;
  (* Show the §IV profiling workflow on a small dedicated run. *)
  Format.printf "@.== page-fault profile of the naive port ==@.";
  let cl = Dex.cluster ~nodes:2 () in
  let events = ref [] in
  let proc =
    Dex.run cl (fun proc main ->
        let trace = Dex_profile.Trace.attach (Process.coherence proc) in
        let total = Process.malloc main ~bytes:8 ~tag:"wordcount.total" in
        let start = Sync.Barrier.create proc ~parties:2 () in
        let th =
          Process.spawn proc (fun th ->
              Process.migrate th 1;
              Sync.Barrier.await th start;
              for _ = 1 to 30 do
                ignore
                  (Process.fetch_add th ~site:"wordcount.scan_loop" total 1L);
                Process.compute th ~ns:(Dex_sim.Time_ns.us 20)
              done)
        in
        Sync.Barrier.await main start;
        for _ = 1 to 30 do
          ignore (Process.fetch_add main ~site:"wordcount.scan_loop" total 1L);
          Process.compute main ~ns:(Dex_sim.Time_ns.us 20)
        done;
        Process.join th;
        events := Dex_profile.Trace.events trace)
  in
  Dex_profile.Report.pp_summary ~alloc:(Process.allocator proc)
    Format.std_formatter !events
