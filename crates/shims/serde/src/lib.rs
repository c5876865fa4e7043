//! Vendored, dependency-free stand-in for the parts of `serde` this
//! workspace uses. The build environment has no access to crates.io, so
//! the real crate cannot be fetched; this shim keeps the same import
//! surface (`serde::{Serialize, Deserialize}`, `#[derive(Serialize,
//! Deserialize)]`) over a much simpler self-describing data model: every
//! value serializes into a [`Value`] tree, and `serde_json` (also
//! vendored) renders/parses that tree as JSON.
//!
//! The data model intentionally mirrors serde's externally-tagged enum
//! convention so the emitted JSON matches what the real serde_json would
//! produce for the derives in this workspace.

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// The self-describing value tree all types serialize into.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON null (also used for non-finite floats, like serde_json).
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer that does not fit in `i64`.
    U64(u64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Sequence.
    Seq(Vec<Value>),
    /// Map with string keys, in insertion order.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Borrow the map entries if this is a map.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Borrow the elements if this is a sequence.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view (integers widen losslessly, within f64 limits).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::I64(v) => Some(*v as f64),
            Value::U64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// Unsigned integer view.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::I64(v) if *v >= 0 => Some(*v as u64),
            Value::U64(v) => Some(*v),
            Value::F64(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// Signed integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            Value::U64(v) if *v <= i64::MAX as u64 => Some(*v as i64),
            Value::F64(v) if v.fract() == 0.0 && *v >= i64::MIN as f64 && *v <= i64::MAX as f64 => {
                Some(*v as i64)
            }
            _ => None,
        }
    }
}

/// Deserialization error: what was expected, in which context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// "expected X while deserializing Y".
    pub fn expected(what: &str, ctx: &str) -> Self {
        DeError(format!("expected {what} while deserializing {ctx}"))
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Types that can serialize themselves into a [`Value`] tree.
pub trait Serialize {
    /// Convert to the self-describing tree.
    fn to_value(&self) -> Value;
}

/// Types that can reconstruct themselves from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuild from the self-describing tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

/// Look up a struct field in a map and deserialize it (derive helper).
pub fn field<T: Deserialize>(
    map: &[(String, Value)],
    key: &str,
    ctx: &str,
) -> Result<T, DeError> {
    let v = map
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| DeError(format!("missing field `{key}` while deserializing {ctx}")))?;
    T::from_value(v)
}

macro_rules! impl_ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::I64(*self as i64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let raw = v.as_i64().ok_or_else(|| DeError::expected("integer", stringify!($t)))?;
                <$t>::try_from(raw).map_err(|_| DeError::expected("in-range integer", stringify!($t)))
            }
        }
    )*};
}

impl_ser_int!(i8, i16, i32, i64, u8, u16, u32);

macro_rules! impl_ser_uint_wide {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let w = *self as u64;
                if w <= i64::MAX as u64 { Value::I64(w as i64) } else { Value::U64(w) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let raw = v.as_u64().ok_or_else(|| DeError::expected("unsigned integer", stringify!($t)))?;
                <$t>::try_from(raw).map_err(|_| DeError::expected("in-range integer", stringify!($t)))
            }
        }
    )*};
}

impl_ser_uint_wide!(u64, usize);

impl Serialize for isize {
    fn to_value(&self) -> Value {
        Value::I64(*self as i64)
    }
}

impl Deserialize for isize {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let raw = v.as_i64().ok_or_else(|| DeError::expected("integer", "isize"))?;
        isize::try_from(raw).map_err(|_| DeError::expected("in-range integer", "isize"))
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_f64().ok_or_else(|| DeError::expected("number", "f64"))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.as_f64().ok_or_else(|| DeError::expected("number", "f32"))? as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::expected("bool", "bool")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(DeError::expected("string", "String")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_seq()
            .ok_or_else(|| DeError::expected("sequence", "Vec"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Copy + Default, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let seq = v.as_seq().ok_or_else(|| DeError::expected("sequence", "array"))?;
        if seq.len() != N {
            return Err(DeError::expected("array of matching length", "array"));
        }
        let mut out = [T::default(); N];
        for (slot, item) in out.iter_mut().zip(seq) {
            *slot = T::from_value(item)?;
        }
        Ok(out)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

macro_rules! impl_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let seq = v.as_seq().ok_or_else(|| DeError::expected("sequence", "tuple"))?;
                let mut it = seq.iter();
                let out = ($(
                    {
                        let _ = $n;
                        $t::from_value(it.next().ok_or_else(|| DeError::expected("longer tuple", "tuple"))?)?
                    },
                )+);
                if it.next().is_some() {
                    return Err(DeError::expected("tuple of matching length", "tuple"));
                }
                Ok(out)
            }
        }
    )*};
}

impl_tuple!((0 A)(0 A, 1 B)(0 A, 1 B, 2 C)(0 A, 1 B, 2 C, 3 D));

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(String::from_value(&"hi".to_string().to_value()).unwrap(), "hi");
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![1u32, 2, 3];
        assert_eq!(Vec::<u32>::from_value(&v.to_value()).unwrap(), v);
        let a = [1usize, 2, 3, 4];
        assert_eq!(<[usize; 4]>::from_value(&a.to_value()).unwrap(), a);
        let o: Option<f64> = Some(2.0);
        assert_eq!(Option::<f64>::from_value(&o.to_value()).unwrap(), o);
    }

    #[test]
    fn errors_are_structured() {
        assert!(bool::from_value(&Value::I64(1)).is_err());
        assert!(field::<u32>(&[], "missing", "Test").is_err());
    }
}
