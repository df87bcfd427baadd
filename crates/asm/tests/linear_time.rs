//! Scaling pin: assembling twice the source must cost about twice the
//! time. The assembler is a byte-facing surface (`xloops run FILE.s`),
//! so a hostile or generated file must not find a quadratic path through
//! label resolution, operand splitting or pseudo-instruction expansion.

use std::time::{Duration, Instant};

use xloops_asm::assemble;

/// `blocks` labelled eight-line blocks: ALU ops, a two-instruction `li`,
/// a load and a store, a comment, and a branch back to the block's own
/// label — about `8 * blocks` source lines.
fn source(blocks: usize) -> String {
    let mut src = String::new();
    for b in 0..blocks {
        src.push_str(&format!(
            "blk{b}:\n    li r9, 0x12345678   # two instructions\n    addu r7, r4, r7\n    \
             sll r11, r8, 2\n    lw r13, 0(r12)\n    sw r13, 4(r12)\n    addiu r2, r2, 1\n    \
             bne r2, r3, blk{b}\n"
        ));
    }
    src.push_str("    exit\n");
    src
}

/// One timing of assembling `src`.
fn assemble_time(src: &str, instrs: usize) -> Duration {
    let t = Instant::now();
    let program = assemble(src).expect("generated source assembles");
    let elapsed = t.elapsed();
    assert_eq!(program.len(), instrs);
    elapsed
}

#[test]
fn assembling_is_linear_time() {
    // A linear assembler costs about 2x for 2n lines; a quadratic one
    // about 4x. The sizes alternate so host noise hits both alike; each
    // keeps the least of its 11 timings.
    let (small, large) = (source(500), source(1000));
    let (mut n, mut n2) = (Duration::MAX, Duration::MAX);
    for _ in 0..11 {
        n = n.min(assemble_time(&small, 8 * 500 + 1));
        n2 = n2.min(assemble_time(&large, 8 * 1000 + 1));
    }
    assert!(n2 < n * 3, "n: {n:?}, 2n: {n2:?}");
}
