//! ASCII rendering of CCPs for examples and the bench harness.

use std::fmt::Write as _;

use crate::model::{Ccp, LocalEvent};

impl Ccp {
    /// Renders the CCP as an ASCII space-time diagram, one line per process.
    ///
    /// Checkpoints appear as `[γ]`, sends as `s(id)`, receives as `r(id)`,
    /// in program order. This is a debugging/presentation aid; alignment
    /// across processes is not to scale.
    ///
    /// ```
    /// use rdt_ccp::CcpBuilder;
    /// use rdt_base::ProcessId;
    /// let mut b = CcpBuilder::new(2);
    /// b.message(ProcessId::new(0), ProcessId::new(1));
    /// let art = b.build().render_ascii();
    /// assert!(art.contains("p1"));
    /// ```
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        for p in self.processes() {
            let _ = write!(out, "{p:>4} ");
            for ev in self.local_events(p) {
                match ev {
                    LocalEvent::Checkpoint(g) => {
                        let _ = write!(out, "[{g}] ");
                    }
                    LocalEvent::Send(id) => {
                        let _ = write!(out, "s({}#{}) ", id.sender, id.seq);
                    }
                    LocalEvent::Receive(id) => {
                        let _ = write!(out, "r({}#{}) ", id.sender, id.seq);
                    }
                }
            }
            let _ = writeln!(out, "| v{}", p.index() + 1);
        }
        out
    }

    /// Renders the CCP as a Graphviz `dot` digraph: one subgraph rank per
    /// process, checkpoint nodes in program order, message edges between
    /// send and receive positions, obsolete stable checkpoints greyed out.
    ///
    /// Useful to visualize the paper's figures ([`crate::figures`], whose
    /// ASCII rendering `cargo run -p rdt-bench --bin reproduce` prints):
    /// pipe the output of this method through `dot -Tsvg`.
    pub fn render_dot(&self) -> String {
        let mut out =
            String::from("digraph ccp {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n");
        let obsolete = self.obsolete_set();
        for p in self.processes() {
            let _ = writeln!(out, "  subgraph cluster_{} {{", p.index());
            let _ = writeln!(out, "    label=\"{p}\";");
            let mut prev: Option<String> = None;
            for g in 0..=self.last_stable(p).value() {
                let name = format!("c{}_{}", p.index(), g);
                let id = rdt_base::CheckpointId::new(p, rdt_base::CheckpointIndex::new(g));
                let style = if obsolete.contains(&id) {
                    ", style=filled, fillcolor=lightgrey"
                } else {
                    ""
                };
                let _ = writeln!(
                    out,
                    "    {name} [label=\"s{}^{}\"{style}];",
                    p.index() + 1,
                    g
                );
                if let Some(prev) = prev {
                    let _ = writeln!(out, "    {prev} -> {name} [style=dotted];");
                }
                prev = Some(name);
            }
            let vol = format!("v{}", p.index());
            let _ = writeln!(
                out,
                "    {vol} [label=\"v{}\", shape=ellipse];",
                p.index() + 1
            );
            if let Some(prev) = prev {
                let _ = writeln!(out, "    {prev} -> {vol} [style=dotted];");
            }
            let _ = writeln!(out, "  }}");
        }
        for m in self.messages().filter(|m| m.delivered()) {
            // Attach edges between the interval-opening checkpoints.
            let src_ck = m.send_interval.value().saturating_sub(1);
            let dst_ck = m
                .recv_interval
                .expect("delivered")
                .value()
                .saturating_sub(1);
            let _ = writeln!(
                out,
                "  c{}_{} -> c{}_{} [label=\"{}#{}\", color=blue];",
                m.src().index(),
                src_ck,
                m.dst.index(),
                dst_ck,
                m.src(),
                m.id.seq,
            );
        }
        out.push_str("}\n");
        out
    }

    /// One-line summary: process count, checkpoints, messages.
    pub fn summary(&self) -> String {
        format!(
            "{} processes, {} stable checkpoints, {} messages ({} delivered)",
            self.n(),
            self.stable_count(),
            self.messages().count(),
            self.delivered_count(),
        )
    }
}

#[cfg(test)]
mod tests {
    use rdt_base::ProcessId;

    use crate::CcpBuilder;

    #[test]
    fn render_includes_every_event() {
        let mut b = CcpBuilder::new(2);
        let m = b.send(ProcessId::new(0), ProcessId::new(1));
        b.deliver(m);
        b.checkpoint(ProcessId::new(1));
        let art = b.build().render_ascii();
        assert!(art.contains("s(p1#0)"), "{art}");
        assert!(art.contains("r(p1#0)"), "{art}");
        assert!(art.contains("[1]"), "{art}");
        assert_eq!(art.lines().count(), 2);
    }

    #[test]
    fn dot_contains_processes_messages_and_obsolete_marking() {
        let mut b = CcpBuilder::new(2);
        b.checkpoint(ProcessId::new(0));
        b.message(ProcessId::new(0), ProcessId::new(1));
        b.checkpoint(ProcessId::new(0)); // makes s_1^0… obsolete? s_1^0 yes
        let dot = b.build().render_dot();
        assert!(dot.starts_with("digraph ccp {"), "{dot}");
        assert!(dot.contains("cluster_0"));
        assert!(dot.contains("color=blue"), "message edge present");
        assert!(dot.contains("lightgrey"), "obsolete checkpoint greyed");
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn summary_counts() {
        let mut b = CcpBuilder::new(3);
        let m = b.send(ProcessId::new(0), ProcessId::new(1));
        b.deliver(m);
        b.send(ProcessId::new(0), ProcessId::new(2));
        let s = b.build().summary();
        assert_eq!(
            s,
            "3 processes, 3 stable checkpoints, 2 messages (1 delivered)"
        );
    }
}
