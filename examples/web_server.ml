(* An Apache-like web server (the paper's §4 example): it serves files by
   memory-mapping them and "transmitting" the bytes.  Run the same server
   against UVM and BSD VM and watch what happens when the working set
   crosses one hundred files — the BSD VM object cache starts discarding
   file data that is still perfectly resident.

   Run with: dune exec examples/web_server.exe *)

open Vmiface.Vmtypes

let nfiles = 150
let file_pages = 16 (* 64 KB documents *)
let requests = 600

module Server (V : Vmiface.Vm_sig.VM_SYS) = struct
  let serve () =
    let config = Vmiface.Machine.config_mb ~ram_mb:64 () in
    let sys = V.boot ~config () in
    let mach = V.machine sys in
    let vfs = mach.Vmiface.Machine.vfs in
    for i = 0 to nfiles - 1 do
      let vn =
        Vfs.create_file vfs
          ~name:(Printf.sprintf "/htdocs/page-%03d.html" i)
          ~size:(file_pages * 4096)
      in
      Vfs.vrele vfs vn
    done;
    let server = V.new_vmspace sys in
    let rng = Sim.Rng.create ~seed:42 in
    let checksum = ref 0 in
    let serve_one () =
      let doc = Sim.Rng.int rng nfiles in
      let vn = Vfs.lookup vfs ~name:(Printf.sprintf "/htdocs/page-%03d.html" doc) in
      (* mmap the document, "send" it, unmap. *)
      let vpn =
        V.mmap sys server ~npages:file_pages ~prot:Pmap.Prot.read
          ~share:Shared (File (vn, 0))
      in
      for p = 0 to file_pages - 1 do
        let b = V.read_bytes sys server ~addr:((vpn + p) * 4096) ~len:64 in
        checksum := !checksum + Char.code (Bytes.get b 0)
      done;
      V.munmap sys server ~vpn ~npages:file_pages;
      Vfs.vrele vfs vn
    in
    let clock = mach.Vmiface.Machine.clock in
    (* Warm up, then measure the steady state. *)
    for _ = 1 to requests / 3 do
      serve_one ()
    done;
    let t0 = Sim.Simclock.now clock in
    for _ = 1 to requests do
      serve_one ()
    done;
    let elapsed = Sim.Simclock.now clock -. t0 in
    let st = mach.Vmiface.Machine.stats in
    Printf.printf
      "%-8s %6d requests in %8.3f s  (%.2f ms/req, %d disk reads, %d cache evictions)\n"
      V.name requests (elapsed /. 1e6)
      (elapsed /. 1e3 /. float_of_int requests)
      Sim.Stats.(get st disk_read_ops) Sim.Stats.(get st obj_cache_evictions);
    !checksum
end

module U = Server (Uvm.Sys)
module B = Server (Bsdvm.Sys)

let () =
  Printf.printf "web server: %d documents of %d KB, working set > 100 files\n\n"
    nfiles (file_pages * 4);
  let cu = U.serve () in
  let cb = B.serve () in
  (* Both servers must have served identical bytes. *)
  assert (cu = cb);
  Printf.printf
    "\nSame documents, same machine: BSD VM's hundred-object cache forces\n\
     disk reads for data that never left memory (paper Figure 2).\n"
