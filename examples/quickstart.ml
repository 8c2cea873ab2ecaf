(* Quickstart: boot a simulated machine running UVM, map a file and some
   anonymous memory, fork a child copy-on-write, and look at the
   statistics — the five abstractions of the paper's Figure 1 in action.

   Run with: dune exec examples/quickstart.exe *)

open Vmiface.Vmtypes
module S = Uvm.Sys

let () =
  (* Boot: 32 MB of RAM, 128 MB of swap, a disk and a filesystem. *)
  let sys = S.boot () in
  let mach = S.machine sys in
  let vfs = mach.Vmiface.Machine.vfs in
  Printf.printf "booted UVM: %d pages of RAM, %d swap slots\n"
    (Physmem.total_pages mach.Vmiface.Machine.physmem)
    (Swap.Swaptier.capacity mach.Vmiface.Machine.swap);

  (* Create a file and a process address space. *)
  let vn = Vfs.create_file vfs ~name:"/sbin/init" ~size:(8 * 4096) in
  let proc = S.new_vmspace sys in

  (* Map the file's "text" read-only shared, its "data" copy-on-write
     private, and zero-fill "bss" — exactly like the init process in the
     paper's Figure 1. *)
  let text =
    S.mmap sys proc ~npages:6 ~prot:Pmap.Prot.rx ~share:Shared (File (vn, 0))
  in
  let data =
    S.mmap sys proc ~npages:2 ~prot:Pmap.Prot.rw ~share:Private (File (vn, 6))
  in
  let bss = S.mmap sys proc ~npages:4 ~prot:Pmap.Prot.rw ~share:Private Zero in
  Printf.printf "mapped text@%d data@%d bss@%d (%d map entries)\n" text data
    bss (S.map_entry_count proc);

  (* Touch memory: page faults bring data in and the fault-ahead window
     maps neighbouring resident pages. *)
  S.access_range sys proc ~vpn:text ~npages:6 Read;
  S.write_bytes sys proc ~addr:(bss * 4096) (Bytes.of_string "hello, uvm");
  Printf.printf "after faults: %d resident pages, %d faults taken\n"
    (S.resident_pages proc) Sim.Stats.(get mach.Vmiface.Machine.stats faults);

  (* Fork: the child shares everything copy-on-write. *)
  let child = S.fork sys proc in
  S.write_bytes sys child ~addr:(bss * 4096) (Bytes.of_string "hello, kid");
  let p = S.read_bytes sys proc ~addr:(bss * 4096) ~len:10 in
  let c = S.read_bytes sys child ~addr:(bss * 4096) ~len:10 in
  Printf.printf "parent sees %S, child sees %S\n" (Bytes.to_string p)
    (Bytes.to_string c);
  Printf.printf "COW resolved with %d page copies and %d in-place writes\n"
    Sim.Stats.(get mach.Vmiface.Machine.stats cow_copies)
    Sim.Stats.(get mach.Vmiface.Machine.stats cow_reuses);

  (* Tear down; anonymous memory is freed the moment it is unreferenced. *)
  S.destroy_vmspace sys child;
  S.destroy_vmspace sys proc;
  Printf.printf "after exit: leaked anonymous pages = %d (always 0 under UVM)\n"
    (S.leaked_pages sys);
  Printf.printf "simulated time elapsed: %.1f us\n"
    (Sim.Simclock.now mach.Vmiface.Machine.clock)
