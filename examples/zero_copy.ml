(* Zero-copy data movement (paper §7): a producer process hands bulk data
   to the kernel (socket send via page loanout) and to a consumer process
   (page transfer), against the traditional copying path.

   Run with: dune exec examples/zero_copy.exe *)

open Vmiface.Vmtypes
module S = Uvm.Sys

let payload_pages = 64 (* a 256 KB message *)

let () =
  let sys = S.boot () in
  let mach = S.machine sys in
  let clock = mach.Vmiface.Machine.clock in
  let producer = S.new_vmspace sys in
  let consumer = S.new_vmspace sys in

  (* The producer builds a payload in anonymous memory. *)
  let src =
    S.mmap sys producer ~npages:payload_pages ~prot:Pmap.Prot.rw
      ~share:Private Zero
  in
  for i = 0 to payload_pages - 1 do
    S.write_bytes sys producer
      ~addr:((src + i) * 4096)
      (Bytes.of_string (Printf.sprintf "packet-%02d" i))
  done;

  (* Path 1: the traditional copy into kernel buffers. *)
  let t0 = Sim.Simclock.now clock in
  let kpages = Uvm.copy_to_kernel sys producer ~vpn:src ~npages:payload_pages in
  let copy_time = Sim.Simclock.now clock -. t0 in
  Uvm.copy_finish sys kpages;

  (* Path 2: loan the pages to the kernel — no copy, COW-protected. *)
  let t0 = Sim.Simclock.now clock in
  let loan = Uvm.loan_to_kernel producer ~vpn:src ~npages:payload_pages in
  let loan_time = Sim.Simclock.now clock -. t0 in
  let first = List.hd (Uvm.Loan.pages loan) in
  Printf.printf "kernel reads loaned frame: %S\n"
    (Bytes.to_string (Bytes.sub first.Physmem.Page.data 0 9));

  (* The producer can keep writing: COW snaps its view away from the
     loan. *)
  S.write_bytes sys producer ~addr:(src * 4096) (Bytes.of_string "rewritten");
  Printf.printf "after producer rewrite, kernel still sees: %S\n"
    (Bytes.to_string (Bytes.sub first.Physmem.Page.data 0 9));
  Uvm.loan_finish sys loan;

  (* Path 3: page transfer — the consumer receives the pages as its own
     anonymous memory, again without copying. *)
  let copies_before = Sim.Stats.(get mach.Vmiface.Machine.stats pages_copied) in
  let t0 = Sim.Simclock.now clock in
  let dst =
    Uvm.page_transfer producer ~vpn:src ~npages:payload_pages ~dst:consumer
      ~prot:Pmap.Prot.rw
  in
  let transfer_time = Sim.Simclock.now clock -. t0 in
  let got = S.read_bytes sys consumer ~addr:((dst + 1) * 4096) ~len:9 in
  Printf.printf "consumer reads transferred page: %S (pages copied: %d)\n"
    (Bytes.to_string got)
    (Sim.Stats.(get mach.Vmiface.Machine.stats pages_copied) - copies_before);

  (* Path 4: map-entry passing — move the whole range through the
     high-level map structures. *)
  let t0 = Sim.Simclock.now clock in
  let shared =
    Uvm.mexp_extract producer ~vpn:src ~npages:payload_pages ~dst:consumer
      Uvm.Mexp.Share
  in
  let mexp_time = Sim.Simclock.now clock -. t0 in
  S.write_bytes sys consumer ~addr:(shared * 4096) (Bytes.of_string "both see!");
  Printf.printf "map-entry passing: producer reads consumer's write: %S\n"
    (Bytes.to_string (S.read_bytes sys producer ~addr:(src * 4096) ~len:9));

  Printf.printf
    "\n%d-page send:\n  copy      %8.1f us\n  loanout   %8.1f us  (%.0f%% less)\n  transfer  %8.1f us\n  mexp      %8.1f us\n"
    payload_pages copy_time loan_time
    (100.0 *. (1.0 -. (loan_time /. copy_time)))
    transfer_time mexp_time
