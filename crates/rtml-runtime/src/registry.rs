//! The in-process function registry (the callable half of the paper's
//! function table).
//!
//! In a multi-process deployment, function *code* ships to workers and
//! the control plane's function table maps IDs to that code. In-process,
//! all workers share one registry of `Arc<dyn Fn>`s, and lineage replay
//! resubmits a spec to the workers that read it. The control-plane
//! [`rtml_kv::FunctionTable`] records the metadata (name, arity) beside
//! it; its one reader is the `inspect` dump
//! ([`crate::tools::cluster_state`]).
//!
//! Functions are identified by the hash of their registered **name**, so
//! a restarted process that re-registers the same names can execute specs
//! recorded before the restart — the property the paper's recovery story
//! requires.

use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;

use rtml_common::codec::{decode_from_bytes, Codec};
use rtml_common::error::{Error, Result};
use rtml_common::ids::FunctionId;

use crate::caller::TaskContext;
use crate::envelope::seal_value;

/// What a worker invokes: value-encoded args in, **sealed** return
/// envelopes out, ready for the store (the value's encode is the seal).
/// The [`TaskContext`] allows nested submissions (R3).
pub type SealedTaskFn = Arc<dyn Fn(&TaskContext, &[Bytes]) -> Result<Vec<Bytes>> + Send + Sync>;

struct Registered {
    name: String,
    arity: u32,
    f: SealedTaskFn,
}

/// Process-wide registry of executable task functions.
#[derive(Default)]
pub struct FunctionRegistry {
    fns: RwLock<HashMap<FunctionId, Registered>>,
}

impl FunctionRegistry {
    /// Creates an empty registry.
    pub fn new() -> Arc<Self> {
        Arc::new(FunctionRegistry::default())
    }

    /// Registers `f` under `name`. Re-registration replaces the callable
    /// (useful for process-restart simulations).
    fn register_sealed(&self, name: &str, arity: u32, f: SealedTaskFn) -> FunctionId {
        let id = FunctionId::from_name(name);
        self.fns.write().insert(
            id,
            Registered {
                name: name.to_string(),
                arity,
                f,
            },
        );
        id
    }

    /// Looks up the callable for `id`.
    pub fn get(&self, id: FunctionId) -> Option<SealedTaskFn> {
        self.fns.read().get(&id).map(|r| r.f.clone())
    }

    /// The registered name for `id`.
    pub fn name_of(&self, id: FunctionId) -> Option<String> {
        self.fns.read().get(&id).map(|r| r.name.clone())
    }

    /// The registered arity for `id`.
    pub fn arity_of(&self, id: FunctionId) -> Option<u32> {
        self.fns.read().get(&id).map(|r| r.arity)
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.fns.read().len()
    }

    /// Whether nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Decodes argument `idx` for a function named `name`. A `Bytes` inside
/// the argument is a window of the buffer it arrived in (for a future,
/// the store's own copy of the object).
fn arg<T: Codec>(name: &str, args: &[Bytes], idx: usize) -> Result<T> {
    let bytes = args
        .get(idx)
        .ok_or_else(|| Error::InvalidArgument(format!("{name}: missing argument {idx}")))?;
    decode_from_bytes(bytes)
        .map_err(|e| Error::InvalidArgument(format!("{name}: argument {idx}: {e}")))
}

macro_rules! typed_func {
    (
        $(#[$meta:meta])*
        $token:ident, $register:ident, $register_ctx:ident, $arity:literal,
        [$($ty:ident : $idx:tt),*]
    ) => {
        $(#[$meta])*
        pub struct $token<$($ty,)* R> {
            id: FunctionId,
            _marker: PhantomData<fn($($ty),*) -> R>,
        }

        impl<$($ty,)* R> Clone for $token<$($ty,)* R> {
            fn clone(&self) -> Self {
                *self
            }
        }
        impl<$($ty,)* R> Copy for $token<$($ty,)* R> {}

        impl<$($ty,)* R> $token<$($ty,)* R> {
            /// The function-table ID behind this token.
            pub fn id(&self) -> FunctionId {
                self.id
            }
        }

        impl FunctionRegistry {
            /// Registers a typed function without context access.
            pub fn $register<$($ty: Codec + 'static,)* R: Codec + 'static>(
                &self,
                name: &str,
                f: impl Fn($($ty),*) -> Result<R> + Send + Sync + 'static,
            ) -> $token<$($ty,)* R> {
                let owned = name.to_string();
                let id = self.register_sealed(
                    name,
                    $arity,
                    Arc::new(move |_ctx, args: &[Bytes]| {
                        let _ = (&owned, args);
                        let result = f($(arg::<$ty>(&owned, args, $idx)?),*)?;
                        Ok(vec![seal_value(&result)])
                    }),
                );
                $token { id, _marker: PhantomData }
            }

            /// Registers a typed function that can also use the
            /// [`TaskContext`] (nested task creation, `get`, `wait`).
            pub fn $register_ctx<$($ty: Codec + 'static,)* R: Codec + 'static>(
                &self,
                name: &str,
                f: impl Fn(&TaskContext $(, $ty)*) -> Result<R> + Send + Sync + 'static,
            ) -> $token<$($ty,)* R> {
                let owned = name.to_string();
                let id = self.register_sealed(
                    name,
                    $arity,
                    Arc::new(move |ctx, args: &[Bytes]| {
                        let _ = (&owned, args);
                        let result = f(ctx $(, arg::<$ty>(&owned, args, $idx)?)*)?;
                        Ok(vec![seal_value(&result)])
                    }),
                );
                $token { id, _marker: PhantomData }
            }
        }
    };
}

typed_func!(
    /// Token for a registered nullary function.
    Func0, register0, register0_ctx, 0, []
);
typed_func!(
    /// Token for a registered unary function.
    Func1, register1, register1_ctx, 1, [A: 0]
);
typed_func!(
    /// Token for a registered binary function.
    Func2, register2, register2_ctx, 2, [A: 0, B: 1]
);
typed_func!(
    /// Token for a registered ternary function.
    Func3, register3, register3_ctx, 3, [A: 0, B: 1, C: 2]
);
typed_func!(
    /// Token for a registered 4-ary function.
    Func4, register4, register4_ctx, 4, [A: 0, B: 1, C: 2, D: 3]
);

#[cfg(test)]
mod tests {
    use super::*;
    use rtml_common::codec::encode_to_bytes;

    #[test]
    fn register_and_invoke_raw() {
        let reg = FunctionRegistry::new();
        let id = reg.register2("add", |a: i64, b: i64| Ok(a + b)).id();
        assert_eq!(reg.name_of(id).as_deref(), Some("add"));
        assert_eq!(reg.arity_of(id), Some(2));
        assert_eq!(reg.len(), 1);
        assert!(reg.get(FunctionId::from_name("missing")).is_none());
        // The callable a worker gets: encoded args in, sealed return out.
        let raw = reg.get(id).unwrap();
        let args = [encode_to_bytes(&2i64), encode_to_bytes(&3i64)];
        let sealed =
            crate::caller::test_support::with_detached_context(|ctx| raw(ctx, &args).unwrap());
        assert_eq!(sealed, vec![seal_value(&5i64)]);
    }

    #[test]
    fn name_determines_id() {
        let reg = FunctionRegistry::new();
        let f = reg.register1("double", |x: i64| Ok(x * 2));
        assert_eq!(f.id(), FunctionId::from_name("double"));
    }

    #[test]
    fn reregistration_replaces() {
        let reg = FunctionRegistry::new();
        let _ = reg.register0("f", || Ok(1i64));
        let _ = reg.register0("f", || Ok(2i64));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn typed_tokens_are_copy() {
        let reg = FunctionRegistry::new();
        let f = reg.register2("sum", |a: i64, b: i64| Ok(a + b));
        let g = f;
        assert_eq!(f.id(), g.id());
    }

    #[test]
    fn missing_argument_is_an_error() {
        let reg = FunctionRegistry::new();
        let f = reg.register1("one_arg", |x: u64| Ok(x));
        let raw = reg.get(f.id()).unwrap();
        // Invoking with no args must error, not panic. A context is
        // required by the signature; build a detached one via test
        // helper.
        let err =
            crate::caller::test_support::with_detached_context(|ctx| raw(ctx, &[]).unwrap_err());
        assert!(matches!(err, Error::InvalidArgument(_)));
    }
}
