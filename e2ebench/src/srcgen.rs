//! Seeded `.mv` source generator for the `source_closed` workload.
//!
//! Every program is one `main` with several loops drawn from a fixed set
//! of templates. Each template knows the parallelisability of every loop
//! it emits (its constructive label), so accuracy needs no other oracle.
//! Labels are listed in source pre-order of the `for` statements, which
//! is the order `mvgnn-lang` assigns loop ids in.

use crate::rng::Rng;

/// Length of every array the programs declare; the largest index any
/// template touches is below it.
const ARRAY_LEN: usize = 128;

/// Float arrays shared by the templates.
const FLOATS: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

/// One generated program with its per-loop labels (1 = parallelisable).
#[derive(Debug, Clone)]
pub struct Program {
    pub text: String,
    pub labels: Vec<usize>,
}

/// The loop templates. Each pushes source lines and the labels of the
/// loops it emits, in pre-order.
#[derive(Debug, Clone, Copy)]
enum Template {
    Map,
    ScalarReduction,
    Histogram,
    Recurrence,
    Stencil,
    NestedMap,
    NestedRowScan,
    GuardedReduction,
}

/// Template draw weights. Each is the summed weight of the closest
/// kernel kind in the NPB, PolyBench and BOTS kernel menus of
/// `mvgnn-dataset` (`suites.rs`), so a program mixes loop kinds as the
/// Table II apps do:
/// map = `VectorMap` (NPB 20 + BOTS 4); scalar reduction = `DotProduct`
/// (NPB 6 + PolyBench 2) + `ScalarSumReduction` (5 + 1 + 3); histogram =
/// `Histogram` (NPB 3); recurrence = `Recurrence` (NPB 2 + BOTS 2);
/// in-place stencil = `Stencil3InPlace` (PolyBench 3); nested map =
/// `Transpose` (NPB 6 + PolyBench 8); nested row scan = `PrefixSum`
/// (NPB 2); guarded reduction = `GuardedReduction` (NPB 3 + PolyBench 1).
const MENU: [(Template, usize); 8] = [
    (Template::Map, 24),
    (Template::ScalarReduction, 17),
    (Template::Histogram, 3),
    (Template::Recurrence, 4),
    (Template::Stencil, 3),
    (Template::NestedMap, 14),
    (Template::NestedRowScan, 2),
    (Template::GuardedReduction, 4),
];

/// A template drawn by [`MENU`] weight.
fn draw(rng: &mut Rng) -> Template {
    let total: usize = MENU.iter().map(|&(_, w)| w).sum();
    let mut roll = rng.below(total);
    for &(t, w) in &MENU[..MENU.len() - 1] {
        if roll < w {
            return t;
        }
        roll -= w;
    }
    MENU[MENU.len() - 1].0
}

struct Emitter<'a> {
    rng: &'a mut Rng,
    lines: Vec<String>,
    labels: Vec<usize>,
}

impl Emitter<'_> {
    fn float(&mut self) -> &'static str {
        FLOATS[self.rng.below(FLOATS.len())]
    }

    /// Two distinct float arrays.
    fn two_floats(&mut self) -> (&'static str, &'static str) {
        let x = self.rng.below(FLOATS.len());
        let y = (x + 1 + self.rng.below(FLOATS.len() - 1)) % FLOATS.len();
        (FLOATS[x], FLOATS[y])
    }

    fn trips(&mut self) -> usize {
        16 + 8 * self.rng.below(14)
    }

    fn constant(&mut self) -> String {
        format!("{}.{}", 1 + self.rng.below(4), self.rng.below(100))
    }

    fn push(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    fn emit(&mut self, t: Template) {
        let n = self.trips();
        let k = self.constant();
        match t {
            Template::Map => {
                let (src, dst) = self.two_floats();
                self.push(format!("    for i in 0..{n} {{"));
                self.push(format!("        {dst}[i] = {src}[i] * {k} + 1.0;"));
                self.push("    }");
                self.labels.push(1);
            }
            Template::ScalarReduction => {
                let (x, y) = self.two_floats();
                self.push(format!("    for i in 0..{n} {{"));
                self.push(format!("        acc[0] = acc[0] + {x}[i] * {y}[i];"));
                self.push("    }");
                self.labels.push(1);
            }
            Template::Histogram => {
                let bins = 4 + self.rng.below(12);
                self.push(format!("    for i in 0..{n} {{"));
                let stride = 1 + self.rng.below(7);
                self.push(format!("        key[i] = (i * {stride}) % {bins};"));
                self.push("    }");
                self.push(format!("    for i in 0..{n} {{"));
                self.push("        hist[key[i]] = hist[key[i]] + 1;");
                self.push("    }");
                self.labels.extend([1, 1]);
            }
            Template::Recurrence => {
                let (x, y) = self.two_floats();
                self.push(format!("    for i in 1..{n} {{"));
                self.push(format!("        {x}[i] = {x}[i - 1] * 0.5 + {y}[i];"));
                self.push("    }");
                self.labels.push(0);
            }
            Template::Stencil => {
                let x = self.float();
                self.push(format!("    for i in 1..{n} {{"));
                self.push(format!(
                    "        {x}[i] = ({x}[i - 1] + {x}[i] + {x}[i + 1]) / 3.0;"
                ));
                self.push("    }");
                self.labels.push(0);
            }
            Template::NestedMap => {
                let rows = 4 + self.rng.below(5);
                let cols = 8 + self.rng.below(8);
                let (src, dst) = self.two_floats();
                self.push(format!("    for i in 0..{rows} {{"));
                self.push(format!("        for j in 0..{cols} {{"));
                self.push(format!(
                    "            {dst}[i * {cols} + j] = {src}[i * {cols} + j] + {k};"
                ));
                self.push("        }");
                self.push("    }");
                self.labels.extend([1, 1]);
            }
            Template::NestedRowScan => {
                let rows = 4 + self.rng.below(5);
                let cols = 8 + self.rng.below(8);
                let (src, dst) = self.two_floats();
                self.push(format!("    for i in 0..{rows} {{"));
                self.push(format!("        for j in 1..{cols} {{"));
                self.push(format!(
                    "            {dst}[i * {cols} + j] = {dst}[i * {cols} + j - 1] + {src}[i * {cols} + j];"
                ));
                self.push("        }");
                self.push("    }");
                // Rows are independent; each row is a prefix scan.
                self.labels.extend([1, 0]);
            }
            Template::GuardedReduction => {
                let x = self.float();
                self.push(format!("    for i in 0..{n} {{"));
                self.push(format!("        if ({x}[i] > {k}) {{"));
                self.push(format!("            acc[0] = acc[0] + {x}[i];"));
                self.push("        }");
                self.push("    }");
                self.labels.push(1);
            }
        }
    }
}

/// One program: an initialising map over every float array, then 2 to 5
/// template loops. The count is a sizing choice: it keeps one request at
/// a few milliseconds, so a run classifies the whole set several times.
pub fn program(rng: &mut Rng) -> Program {
    let mut e = Emitter {
        rng,
        lines: Vec::new(),
        labels: Vec::new(),
    };
    for name in FLOATS {
        e.push(format!("array {name}[{ARRAY_LEN}]: f64;"));
    }
    e.push("array acc[1]: f64;");
    e.push(format!("array key[{ARRAY_LEN}]: i64;"));
    e.push("array hist[16]: i64;");
    e.push("fn main() {");
    let period = 3 + e.rng.below(9);
    // The language has no int-to-float conversion, so the values come
    // from a guarded pair of constants.
    e.push(format!("    for i in 0..{ARRAY_LEN} {{"));
    e.push(format!("        if (i % {period} == 0) {{"));
    for (k, name) in FLOATS.iter().enumerate() {
        e.push(format!("            {name}[i] = {}.5;", k + 1));
    }
    e.push("        } else {");
    for (k, name) in FLOATS.iter().enumerate() {
        e.push(format!("            {name}[i] = 0.{};", k + 2));
    }
    e.push("        }");
    e.push("    }");
    e.labels.push(1);
    let count = 2 + e.rng.below(4);
    for _ in 0..count {
        let t = draw(e.rng);
        e.emit(t);
    }
    e.push("}");
    let mut text = e.lines.join("\n");
    text.push('\n');
    Program {
        text,
        labels: e.labels,
    }
}
