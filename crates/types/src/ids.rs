//! Identifier newtypes for the heterogeneous processor topology and for
//! managed applications.

use std::fmt;

/// Index of a *core kind* within a platform's hardware description.
///
/// A core kind groups identical cores: e.g. on an Intel Raptor Lake system
/// kind `0` could be the P-cores and kind `1` the E-cores; on an Arm
/// big.LITTLE system kind `0` the big (A15) and kind `1` the LITTLE (A7)
/// cluster. The mapping from kind index to human-readable name lives in the
/// platform's hardware description (`harp-platform`), keeping this crate free
/// of hard-coded hardware knowledge — mirroring how the HARP RM receives the
/// hardware description at runtime (paper §4.3).
///
/// # Example
///
/// ```
/// use harp_types::CoreKind;
/// let p = CoreKind(0);
/// assert_eq!(p.index(), 0);
/// assert_eq!(format!("{p}"), "kind0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreKind(pub usize);

impl CoreKind {
    /// The raw kind index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for CoreKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kind{}", self.0)
    }
}

/// Identifier of a physical core, unique within one machine.
///
/// # Example
///
/// ```
/// use harp_types::CoreId;
/// let c = CoreId(5);
/// assert_eq!(format!("{c}"), "core5");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub usize);

impl CoreId {
    /// The raw core index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Identifier of a hardware thread (SMT sibling), unique within one machine.
///
/// Hardware threads are numbered consecutively; the platform description maps
/// each hardware thread to its physical [`CoreId`].
///
/// # Example
///
/// ```
/// use harp_types::HwThreadId;
/// let t = HwThreadId(12);
/// assert_eq!(t.index(), 12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HwThreadId(pub usize);

impl HwThreadId {
    /// The raw hardware-thread index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for HwThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hwt{}", self.0)
    }
}

/// Identifier of a managed application (session), assigned by the RM upon
/// registration (paper §4.1.1, step 1).
///
/// In the real daemon this corresponds to the registering process; in the
/// simulator it identifies a simulated application instance.
///
/// # Example
///
/// ```
/// use harp_types::AppId;
/// let a = AppId(3);
/// assert_eq!(format!("{a}"), "app3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppId(pub u64);

impl AppId {
    /// The raw application id.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_stable() {
        assert_eq!(CoreKind(2).to_string(), "kind2");
        assert_eq!(CoreId(0).to_string(), "core0");
        assert_eq!(HwThreadId(31).to_string(), "hwt31");
        assert_eq!(AppId(7).to_string(), "app7");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(CoreId(1) < CoreId(2));
        assert!(HwThreadId(0) < HwThreadId(1));
        assert!(AppId(10) > AppId(9));
    }

    #[test]
    fn ids_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreKind>();
        assert_send_sync::<CoreId>();
        assert_send_sync::<HwThreadId>();
        assert_send_sync::<AppId>();
    }
}
