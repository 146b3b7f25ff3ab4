//! Fixed-point resource vectors for heterogeneous task scheduling (R4).
//!
//! Tasks declare a demand (`{cpu: 1}`, `{gpu: 1, cpu: 0.5}`, ...); nodes
//! advertise a capacity; schedulers do arithmetic on the two. Quantities
//! are stored in **milli-units** (1 CPU = 1000 milli-CPUs) so comparisons
//! are exact — the same trick Ray itself uses to avoid floating-point
//! drift in admission control.

use std::fmt;

use crate::codec::{Codec, Reader, Writer};
use crate::error::{Error, Result};

/// Milli-units per whole resource unit.
pub const MILLI: u64 = 1000;

/// A resource demand or capacity: CPU, GPU, and named custom resources.
///
/// # Examples
///
/// ```
/// use rtml_common::resources::Resources;
///
/// let node = Resources::new(8.0, 1.0);
/// let task = Resources::cpu(1.0);
/// assert!(node.fits(&task));
/// let after = node.checked_sub(&task).unwrap();
/// assert_eq!(after.cpu_units(), 7.0);
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Resources {
    cpu_milli: u64,
    gpu_milli: u64,
    /// Sorted by name; invariant maintained by all constructors.
    custom: Vec<(String, u64)>,
}

impl Resources {
    /// A zero demand (runs anywhere, consumes nothing).
    pub const fn none() -> Self {
        Resources {
            cpu_milli: 0,
            gpu_milli: 0,
            custom: Vec::new(),
        }
    }

    /// Builds a resource vector with `cpu` CPUs and `gpu` GPUs.
    ///
    /// Fractional values are truncated to milli-unit precision. Negative
    /// values are clamped to zero.
    pub fn new(cpu: f64, gpu: f64) -> Self {
        Resources {
            cpu_milli: to_milli(cpu),
            gpu_milli: to_milli(gpu),
            custom: Vec::new(),
        }
    }

    /// A CPU-only demand.
    pub fn cpu(amount: f64) -> Self {
        Resources::new(amount, 0.0)
    }

    /// A GPU-only demand.
    pub fn gpu(amount: f64) -> Self {
        Resources::new(0.0, amount)
    }

    /// Adds a named custom resource (e.g. `"lidar"`, `"tpu"`), returning
    /// the updated vector builder-style.
    pub fn with_custom(mut self, name: &str, amount: f64) -> Self {
        self.set_custom(name, to_milli(amount));
        self
    }

    fn set_custom(&mut self, name: &str, milli: u64) {
        match self.custom.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => {
                if milli == 0 {
                    self.custom.remove(i);
                } else {
                    self.custom[i].1 = milli;
                }
            }
            Err(i) => {
                if milli != 0 {
                    self.custom.insert(i, (name.to_string(), milli));
                }
            }
        }
    }

    /// CPU quantity in whole units.
    pub fn cpu_units(&self) -> f64 {
        self.cpu_milli as f64 / MILLI as f64
    }

    /// GPU quantity in whole units.
    pub fn gpu_units(&self) -> f64 {
        self.gpu_milli as f64 / MILLI as f64
    }

    /// CPU quantity in milli-units.
    pub fn cpu_milli(&self) -> u64 {
        self.cpu_milli
    }

    /// GPU quantity in milli-units.
    pub fn gpu_milli(&self) -> u64 {
        self.gpu_milli
    }

    fn custom_milli(&self, name: &str) -> u64 {
        self.custom
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .map(|i| self.custom[i].1)
            .unwrap_or(0)
    }

    /// Whether every component is zero.
    pub fn is_zero(&self) -> bool {
        self.cpu_milli == 0 && self.gpu_milli == 0 && self.custom.is_empty()
    }

    /// Whether `demand` fits within `self` on every component.
    pub fn fits(&self, demand: &Resources) -> bool {
        if demand.cpu_milli > self.cpu_milli || demand.gpu_milli > self.gpu_milli {
            return false;
        }
        demand
            .custom
            .iter()
            .all(|(name, amt)| self.custom_milli(name) >= *amt)
    }

    /// Component-wise sum.
    pub fn add(&self, other: &Resources) -> Resources {
        let mut out = self.clone();
        out.cpu_milli = out.cpu_milli.saturating_add(other.cpu_milli);
        out.gpu_milli = out.gpu_milli.saturating_add(other.gpu_milli);
        for (name, amt) in &other.custom {
            let cur = out.custom_milli(name);
            out.set_custom(name, cur.saturating_add(*amt));
        }
        out
    }

    /// Component-wise subtraction clamped at zero. Used for accounting
    /// that may transiently oversubscribe (e.g. a blocked task
    /// re-acquiring its grant while extra workers run).
    pub fn saturating_sub(&self, other: &Resources) -> Resources {
        let mut out = self.clone();
        out.cpu_milli = out.cpu_milli.saturating_sub(other.cpu_milli);
        out.gpu_milli = out.gpu_milli.saturating_sub(other.gpu_milli);
        for (name, amt) in &other.custom {
            let cur = out.custom_milli(name);
            out.set_custom(name, cur.saturating_sub(*amt));
        }
        out
    }

    /// Component-wise subtraction; `None` if any component would go
    /// negative (i.e. `other` does not fit).
    pub fn checked_sub(&self, other: &Resources) -> Option<Resources> {
        if !self.fits(other) {
            return None;
        }
        let mut out = self.clone();
        out.cpu_milli -= other.cpu_milli;
        out.gpu_milli -= other.gpu_milli;
        for (name, amt) in &other.custom {
            let cur = out.custom_milli(name);
            out.set_custom(name, cur - amt);
        }
        Some(out)
    }

    /// How many tasks demanding `demand` run side by side within `self`
    /// — a node's slots for that task shape. `u64::MAX` for a demand of
    /// nothing, `0` when `demand` does not fit.
    pub fn slots_for(&self, demand: &Resources) -> u64 {
        let mut slots = u64::MAX;
        let mut fit = |have: u64, want: u64| {
            if let Some(fits) = have.checked_div(want) {
                slots = slots.min(fits);
            }
        };
        fit(self.cpu_milli, demand.cpu_milli);
        fit(self.gpu_milli, demand.gpu_milli);
        for (name, want) in &demand.custom {
            fit(self.custom_milli(name), *want);
        }
        slots
    }

    /// Total demand expressed as a single scalar, used for load heuristics.
    /// GPUs are weighted heavier than CPUs because they are scarcer.
    pub fn scalar_weight(&self) -> u64 {
        let custom: u64 = self.custom.iter().map(|(_, a)| a).sum();
        self.cpu_milli + 8 * self.gpu_milli + custom
    }

    /// Iterates over the named custom resources as `(name, whole units)`.
    pub fn custom_iter(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        self.custom
            .iter()
            .map(|(n, a)| (n.as_str(), *a as f64 / MILLI as f64))
    }
}

fn to_milli(v: f64) -> u64 {
    if v <= 0.0 || !v.is_finite() {
        0
    } else {
        (v * MILLI as f64).round() as u64
    }
}

impl fmt::Debug for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{cpu:{}", self.cpu_units())?;
        if self.gpu_milli > 0 {
            write!(f, ", gpu:{}", self.gpu_units())?;
        }
        for (name, amt) in self.custom_iter() {
            write!(f, ", {name}:{amt}")?;
        }
        write!(f, "}}")
    }
}

impl Codec for Resources {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.cpu_milli);
        w.put_varint(self.gpu_milli);
        w.put_varint(self.custom.len() as u64);
        for (name, amt) in &self.custom {
            name.encode(w);
            w.put_varint(*amt);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let cpu_milli = r.take_varint()?;
        let gpu_milli = r.take_varint()?;
        let n = r.take_varint()? as usize;
        let mut custom = Vec::with_capacity(n.min(64));
        let mut prev: Option<String> = None;
        for _ in 0..n {
            let name = String::decode(r)?;
            let amt = r.take_varint()?;
            // Enforce the sortedness invariant at the trust boundary.
            if let Some(p) = &prev {
                if p.as_str() >= name.as_str() {
                    return Err(Error::Codec("custom resources not sorted".into()));
                }
            }
            prev = Some(name.clone());
            custom.push((name, amt));
        }
        Ok(Resources {
            cpu_milli,
            gpu_milli,
            custom,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_from_slice, encode_to_bytes};

    #[test]
    fn fits_basic() {
        let node = Resources::new(4.0, 1.0);
        assert!(node.fits(&Resources::cpu(4.0)));
        assert!(!node.fits(&Resources::cpu(4.001)));
        assert!(node.fits(&Resources::gpu(1.0)));
        assert!(!node.fits(&Resources::gpu(2.0)));
        assert!(node.fits(&Resources::none()));
    }

    #[test]
    fn custom_resources_participate() {
        let node = Resources::new(4.0, 0.0).with_custom("lidar", 2.0);
        assert!(node.fits(&Resources::none().with_custom("lidar", 2.0)));
        assert!(!node.fits(&Resources::none().with_custom("lidar", 2.5)));
        assert!(!node.fits(&Resources::none().with_custom("radar", 0.5)));
    }

    #[test]
    fn slots_are_the_scarcest_component() {
        let node = Resources::new(4.0, 1.0).with_custom("lidar", 2.0);
        assert_eq!(node.slots_for(&Resources::cpu(1.0)), 4);
        assert_eq!(node.slots_for(&Resources::cpu(1.5)), 2);
        assert_eq!(node.slots_for(&Resources::new(1.0, 0.5)), 2);
        assert_eq!(
            node.slots_for(&Resources::cpu(0.5).with_custom("lidar", 2.0)),
            1
        );
        assert_eq!(node.slots_for(&Resources::gpu(2.0)), 0);
        assert_eq!(
            node.slots_for(&Resources::none().with_custom("radar", 1.0)),
            0
        );
        assert_eq!(node.slots_for(&Resources::none()), u64::MAX);
    }

    #[test]
    fn add_then_sub_is_identity() {
        let a = Resources::new(2.0, 1.0).with_custom("x", 3.0);
        let b = Resources::new(0.5, 0.5)
            .with_custom("x", 1.0)
            .with_custom("y", 2.0);
        let sum = a.add(&b);
        let back = sum.checked_sub(&b).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn sub_underflow_is_none() {
        let a = Resources::cpu(1.0);
        assert!(a.checked_sub(&Resources::cpu(1.5)).is_none());
        assert!(a.checked_sub(&Resources::gpu(0.001)).is_none());
    }

    #[test]
    fn fractional_precision_is_milli() {
        let r = Resources::cpu(0.0004); // rounds to 0
        assert!(r.is_zero());
        let r = Resources::cpu(0.001);
        assert_eq!(r.cpu_milli(), 1);
        let r = Resources::cpu(0.5);
        assert_eq!(r.cpu_milli(), 500);
    }

    #[test]
    fn negative_and_nan_clamp_to_zero() {
        assert!(Resources::cpu(-1.0).is_zero());
        assert!(Resources::cpu(f64::NAN).is_zero());
    }

    #[test]
    fn custom_zero_amounts_are_dropped() {
        let r = Resources::none().with_custom("a", 0.0);
        assert!(r.is_zero());
    }

    #[test]
    fn codec_round_trip() {
        let r = Resources::new(3.5, 2.0)
            .with_custom("b", 1.0)
            .with_custom("a", 0.25);
        let bytes = encode_to_bytes(&r);
        let back: Resources = decode_from_slice(&bytes).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn codec_rejects_unsorted_custom() {
        let mut w = Writer::new();
        w.put_varint(0);
        w.put_varint(0);
        w.put_varint(2);
        String::from("b").encode(&mut w);
        w.put_varint(1);
        String::from("a").encode(&mut w);
        w.put_varint(1);
        let bytes = w.into_bytes();
        let r: Result<Resources> = decode_from_slice(&bytes);
        assert!(r.is_err());
    }

    #[test]
    fn display_is_compact() {
        let r = Resources::new(1.0, 1.0).with_custom("tpu", 2.0);
        assert_eq!(format!("{r}"), "{cpu:1, gpu:1, tpu:2}");
    }

    #[test]
    fn scalar_weight_orders_demands() {
        assert!(Resources::gpu(1.0).scalar_weight() > Resources::cpu(1.0).scalar_weight());
    }
}
