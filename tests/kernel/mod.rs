//! The loop-kernel grammar shared by the differential suites.

use protoobf::{Codec, Message};
use rand::rngs::StdRng;
use rand::Rng;

/// A grammar for the loop kernels: a table of fixed fields (an element
/// run), a counted table nested in another (the inner one a run, the
/// outer one not), a table of one field (a one-column run), an element
/// holding an optional (where the kernel must not fire), and a
/// terminated repetition whose split halves are linked by count. Obfuscation adds pads to elements, splits tables and
/// repetitions, and mirrors or splits their fields.
pub const KERNEL_SPEC: &str = r#"
message Kernel {
    u16 count = count(records);
    u8 flag;
    tabular records count_by count {
        u32 key;
        u16 flags;
        bytes(6) payload;
    }
    u8 ngroups = count(groups);
    tabular groups count_by ngroups {
        u8 nitems = count(items);
        tabular items count_by nitems {
            u16 v;
            u8 w;
        }
    }
    u8 nregs = count(regs);
    tabular regs count_by nregs {
        u16 reg;
    }
    u8 nopts = count(opts);
    tabular opts count_by nopts {
        u16 id;
        optional extra if flag == 1 {
            u16 x;
        }
    }
    repeat marks until "\xff" {
        u8 tag;
        u16 mv;
        bytes(3) mb;
    }
    bytes tail rest;
}
"#;

/// A seeded message of [`KERNEL_SPEC`]: zero or more elements in every
/// container, groups without items among them, mark tags that never
/// alias the repetition's terminator.
pub fn kernel_message<'c>(codec: &'c Codec, rng: &mut StdRng) -> Message<'c> {
    let mut msg = codec.message_seeded(rng.gen());
    let flag = rng.gen_range(0..2u64);
    msg.set_uint("flag", flag).unwrap();
    for i in 0..rng.gen_range(0..7) {
        msg.set_uint(&format!("records[{i}].key"), rng.gen::<u32>().into()).unwrap();
        msg.set_uint(&format!("records[{i}].flags"), rng.gen::<u16>().into()).unwrap();
        msg.set(&format!("records[{i}].payload"), random_bytes(rng, 6)).unwrap();
    }
    for g in 0..rng.gen_range(0..4) {
        for j in 0..rng.gen_range(0..4) {
            msg.set_uint(&format!("groups[{g}].items[{j}].v"), rng.gen::<u16>().into()).unwrap();
            msg.set_uint(&format!("groups[{g}].items[{j}].w"), rng.gen::<u8>().into()).unwrap();
        }
    }
    for r in 0..rng.gen_range(0..5) {
        msg.set_uint(&format!("regs[{r}].reg"), rng.gen::<u16>().into()).unwrap();
    }
    for k in 0..rng.gen_range(0..4) {
        msg.set_uint(&format!("opts[{k}].id"), rng.gen::<u16>().into()).unwrap();
        if flag == 1 {
            msg.set_uint(&format!("opts[{k}].extra.x"), rng.gen::<u16>().into()).unwrap();
        }
    }
    for m in 0..rng.gen_range(0..5) {
        msg.set_uint(&format!("marks[{m}].tag"), rng.gen_range(0..0xff)).unwrap();
        msg.set_uint(&format!("marks[{m}].mv"), rng.gen::<u16>().into()).unwrap();
        msg.set(&format!("marks[{m}].mb"), random_bytes(rng, 3)).unwrap();
    }
    let tail_len = rng.gen_range(0..9);
    msg.set("tail", random_bytes(rng, tail_len)).unwrap();
    msg
}

fn random_bytes(rng: &mut StdRng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.gen()).collect()
}
