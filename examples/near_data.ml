(* Scheduling extension: computation-to-data affinity.

   The paper's conclusion sketches uses of DeX's relocation capability;
   this example demonstrates one. A dataset is produced on node 2; a
   worker thread then asks the affinity scheduler where the data lives and
   migrates itself there before processing it — turning every would-be
   remote fault into a local hit.

   Run with: dune exec examples/near_data.exe *)

open Dex_core
open Dex_sched

let () =
  let cl = Dex.cluster ~nodes:4 () in
  ignore
    (Dex.run cl (fun proc main ->
         let coh = Process.coherence proc in
         let data = Process.memalign main ~align:4096 ~bytes:(64 * 4096)
             ~tag:"dataset" in
         (* Produce the dataset on node 2. *)
         let producer =
           Process.spawn proc (fun th ->
               Process.migrate th 2;
               Process.write_range th ~site:"produce" data ~len:(64 * 4096))
         in
         Process.join producer;
         let ranges = [ (data, 64 * 4096) ] in
         let counts = Affinity.owned_pages coh ~ranges in
         Format.printf "pages per node after production: %s@."
           (String.concat " "
              (Array.to_list (Array.map string_of_int counts)));
         (* A consumer follows the data instead of pulling it. *)
         let consumer =
           Process.spawn proc (fun th ->
               let t0 = Dex_sim.Engine.now (Cluster.engine cl) in
               let node = Affinity.migrate_to_data th ~ranges in
               Process.read_range th ~site:"consume" data ~len:(64 * 4096);
               Format.printf
                 "consumer migrated to node %d and scanned locally in %a@."
                 node Dex_sim.Time_ns.pp
                 (Dex_sim.Engine.now (Cluster.engine cl) - t0))
         in
         Process.join consumer));
  Format.printf "total simulated time: %a@." Dex_sim.Time_ns.pp
    (Dex.elapsed cl)
