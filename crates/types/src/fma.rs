//! Run-time choice between hardware and portable fused multiply-add.
//!
//! [`Scalar::mul_add`](crate::Scalar::mul_add) is a correctly rounded
//! fused multiply-add. The baseline x86-64 target has no FMA
//! instruction, so there it compiles to an out-of-line call into the
//! run-time library's `fma`: two indirect calls per multiply-add and no
//! vectorisation. [`fma_kernel!`](crate::fma_kernel) compiles a kernel
//! body twice, once with the `fma` target feature and once for the
//! baseline, and picks the copy per call from what the CPU reports. Both
//! copies round every multiply-add once and neither reassociates, so
//! they return the same bits.

/// True when the running CPU executes FMA instructions.
///
/// The standard library detects this once and caches it; the call is a
/// load and a bit test. Always false off x86-64.
#[inline]
pub fn detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Define a kernel compiled twice, with hardware FMA and portably.
///
/// ```
/// use batsolv_types::Scalar;
///
/// batsolv_types::fma_kernel! {
///     /// `Σ xᵢ·yᵢ`, one fused multiply-add per term.
///     pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
///         let mut acc = T::ZERO;
///         for (&a, &b) in x.iter().zip(y) {
///             acc = a.mul_add(b, acc);
///         }
///         acc
///     }
/// }
///
/// fn main() {
///     let (x, y) = ([1.5f64, -2.0, 0.25], [4.0, 0.5, 8.0]);
///     assert_eq!(dot(&x, &y), 7.0);
///     assert_eq!(dot::portable(&x, &y), 7.0);
///     if batsolv_types::fma::detected() {
///         assert_eq!(dot::hardware(&x, &y), 7.0);
///     }
/// }
/// ```
///
/// This expands to the function `name`, which calls `name::hardware`
/// when [`detected`] and `name::portable` otherwise, and a crate-visible
/// module `name` holding the two copies, so tests can compare them:
///
/// * `portable` is the body itself, `#[inline(always)]`, so each caller
///   compiles it with the caller's own target features;
/// * `hardware` calls `portable` from a `#[target_feature(enable =
///   "fma")]` function, so the body is inlined there and compiled with
///   FMA. It panics on a CPU without FMA.
///
/// The `#[target_feature]` function must call the body directly by name.
/// A closure or function handed through a generic trampoline that the
/// portable path also calls is not reliably inlined into it, and then
/// runs without FMA.
///
/// The kernel takes one type parameter with one bound and plain
/// `name: Type` arguments, and is defined at module level.
#[macro_export]
macro_rules! fma_kernel {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident<$T:ident: $bound:path>($($arg:ident: $ty:ty),* $(,)?)
            $(-> $ret:ty)? $body:block
    ) => {
        $(#[$attr])*
        #[inline]
        $vis fn $name<$T: $bound>($($arg: $ty),*) $(-> $ret)? {
            if $crate::fma::detected() {
                $name::hardware($($arg),*)
            } else {
                $name::portable($($arg),*)
            }
        }

        pub(crate) mod $name {
            #[allow(unused_imports)]
            use super::*;

            #[inline(always)]
            pub fn portable<$T: $bound>($($arg: $ty),*) $(-> $ret)? $body

            pub fn hardware<$T: $bound>($($arg: $ty),*) $(-> $ret)? {
                assert!(
                    $crate::fma::detected(),
                    concat!(stringify!($name), ": this CPU has no FMA")
                );
                #[cfg(target_arch = "x86_64")]
                {
                    /// # Safety
                    ///
                    /// The CPU must support FMA.
                    #[target_feature(enable = "fma")]
                    unsafe fn with_fma<$T: $bound>($($arg: $ty),*) $(-> $ret)? {
                        portable($($arg),*)
                    }
                    // SAFETY: `with_fma` requires only the `fma` target
                    // feature, and the assert above checked that this CPU
                    // has it.
                    unsafe { with_fma($($arg),*) }
                }
                #[cfg(not(target_arch = "x86_64"))]
                portable($($arg),*)
            }
        }
    };
}
