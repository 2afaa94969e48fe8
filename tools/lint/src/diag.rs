//! Diagnostics: rustc-style `file:line: error[rule-id]: message`.

use std::fmt;

/// The rule ids, as they appear in `error[...]`.
pub mod rules {
    /// Iteration over a hash container without a sort.
    pub const UNORDERED_ITER: &str = "unordered-iter";
    /// Kernel hook body touching live (non-iteration-start) state.
    pub const KERNEL_PURITY: &str = "kernel-purity";
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (see [`rules`]).
    pub rule: &'static str,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: error[{}]: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_rustc_style() {
        let d = Diagnostic {
            path: "crates/core/src/kernel.rs".into(),
            line: 42,
            rule: rules::KERNEL_PURITY,
            message: "no".into(),
        };
        assert_eq!(
            d.to_string(),
            "crates/core/src/kernel.rs:42: error[kernel-purity]: no"
        );
    }
}
