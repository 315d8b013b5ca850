//! The single-line ownership-transfer workload as Op-IR programs: the
//! fixture behind `tests/golden/observed_transfer.txt`, and a
//! flag-synchronized handoff the analyzer must pass.

use knl::arch::CoreId;
use knl::sim::{Op, Program};

/// The single-line transfer workload as flag-synchronized Op-IR programs:
/// the owner dirties a fresh line each iteration and publishes it; the
/// reader waits for the publication and performs the measured dependent
/// load. The cross-thread handoff is flag-ordered, so the workload
/// analyzes race-free.
pub fn transfer_programs(owner: CoreId, reader: CoreId, iters: usize) -> Vec<Program> {
    let flag = 1u64 << 30;
    let mut po = Program::on_core(owner);
    let mut pr = Program::on_core(reader);
    for it in 0..iters {
        let gen = it as u64 + 1;
        let addr = (1u64 << 23) + (it as u64) * 64;
        po.push(Op::Write(addr)).push(Op::SetFlag {
            addr: flag,
            val: gen,
        });
        pr.push(Op::WaitFlag {
            addr: flag,
            val: gen,
        })
        .push(Op::MarkStart(it))
        .push(Op::Read(addr))
        .push(Op::MarkEnd(it));
    }
    vec![po, pr]
}
