//! Seeded generator for the paper's `Places` schema (Figure 1), scaled up.
//!
//! Every column is drawn from a fixed domain, so dictionaries stop growing
//! once the domain is covered and every dictionary stays far below the
//! 2^16 codes a packed tracker key allows (largest: 20 000 phone numbers).
//! A row is identified by `(locality, zip, phone)`; every other column is
//! a function of those, which makes all four tracked FDs exact:
//!
//! * F1 `District, Region -> AreaCode`: a locality is one (District,
//!   Region) pair and owns one area code;
//! * F2 `Zip -> City, State`: both are functions of the zip;
//! * F3 `PhNo, Zip -> Street`: the street is a hash of (phone, zip);
//! * F4 `Municipal -> AreaCode`: a locality is one municipality.
//!
//! [`plant`] builds the one row that breaks exactly one of them.

use std::sync::Arc;

use evofd_storage::{DataType, Field, Relation, RelationBuilder, Schema, Value};

/// Table name.
pub const TABLE: &str = "Places";

/// Column order of Figure 1.
pub const COLUMNS: [&str; 9] =
    ["District", "Region", "Municipal", "AreaCode", "PhNo", "Street", "Zip", "City", "State"];

/// The four tracked FDs, in declaration order.
pub const FDS: [&str; 4] = [
    "District, Region -> AreaCode",
    "Zip -> City, State",
    "PhNo, Zip -> Street",
    "Municipal -> AreaCode",
];

const LOCALITIES: u32 = 1500;
const ZIPS: u32 = 3000;
const PHONES: u32 = 20_000;
const STREETS: u32 = 2000;
const STATES: [&str; 15] =
    ["NY", "MA", "CA", "TX", "IL", "WA", "OR", "NV", "AZ", "CO", "GA", "FL", "OH", "MI", "PA"];

/// SplitMix64: small, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates the sequences drawn by
    /// different sessions under one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One FD-consistent row, identified by its three free coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Row {
    pub loc: u32,
    pub zip: u32,
    pub phone: u32,
}

impl Row {
    /// A uniformly drawn row.
    pub fn random(rng: &mut Rng) -> Row {
        Row {
            loc: rng.below(LOCALITIES as u64) as u32,
            zip: rng.below(ZIPS as u64) as u32,
            phone: rng.below(PHONES as u64) as u32,
        }
    }

    /// The same row with another phone number (an FD-consistent UPDATE).
    pub fn rephoned(self, rng: &mut Rng) -> Row {
        Row { phone: rng.below(PHONES as u64) as u32, ..self }
    }

    /// The nine column values.
    pub fn values(self) -> Vec<String> {
        let (l, z, p) = (self.loc, self.zip, self.phone);
        vec![
            district(l),
            region(l),
            municipal(l),
            area_code(l),
            phno(p),
            street(p, z),
            zip(z),
            city(z),
            state(z),
        ]
    }

    /// `INSERT` of this row.
    pub fn insert_sql(self) -> String {
        insert_sql(&self.values())
    }

    /// A predicate that matches exactly the copies of this row: phone and
    /// zip fix the street, the municipality fixes the locality.
    pub fn key_predicate(self) -> String {
        format!(
            "PhNo = '{}' AND Zip = '{}' AND Municipal = '{}'",
            phno(self.phone),
            zip(self.zip),
            municipal(self.loc)
        )
    }

    /// `UPDATE` moving every copy of this row to `to` (same locality and
    /// zip, new phone and hence new street).
    pub fn update_sql(self, to: Row) -> String {
        format!(
            "UPDATE {TABLE} SET PhNo = '{}', Street = '{}' WHERE {}",
            phno(to.phone),
            street(to.phone, to.zip),
            self.key_predicate()
        )
    }

    /// `DELETE` of every copy of this row.
    pub fn delete_sql(self) -> String {
        format!("DELETE FROM {TABLE} WHERE {}", self.key_predicate())
    }

    /// True iff this row shares FD `fd`'s antecedent group with `other`.
    pub fn same_lhs(self, other: Row, fd: usize) -> bool {
        match fd {
            0 | 3 => self.loc == other.loc,
            1 => self.zip == other.zip,
            _ => self.zip == other.zip && self.phone == other.phone,
        }
    }
}

fn district(l: u32) -> String {
    format!("D{:03}", l / 3)
}
fn region(l: u32) -> String {
    format!("R{}", l % 3)
}
fn municipal(l: u32) -> String {
    format!("M{l:04}")
}
fn area_code(l: u32) -> String {
    format!("{}", 200 + l / 5)
}
fn phno(p: u32) -> String {
    format!("{:03}-{:04}", 200 + p / 10_000, p % 10_000)
}
fn street_index(p: u32, z: u32) -> u32 {
    let h = (p as u64).wrapping_mul(0x9E37_79B9).wrapping_add((z as u64).wrapping_mul(0x85EB_CA6B));
    ((h ^ (h >> 17)) % STREETS as u64) as u32
}
fn street(p: u32, z: u32) -> String {
    format!("St{:04}", street_index(p, z))
}
fn zip(z: u32) -> String {
    format!("{:05}", 10_000 + z)
}
fn city(z: u32) -> String {
    format!("City{:03}", z / 10)
}
fn state(z: u32) -> String {
    STATES[(z / 200) as usize].to_string()
}

/// Zip code text of zip index `z` (read statements).
pub fn zip_text(z: u32) -> String {
    zip(z)
}

/// `(City, State)` every row with zip index `z` carries.
pub fn city_state(z: u32) -> (String, String) {
    (city(z), state(z))
}

/// City every row with zip text `zip_text` carries.
pub fn city_of_zip(zip_text: &str) -> Option<String> {
    zip_index(zip_text).map(city)
}

/// Street every row with phone index `p` and zip text `zip_text` carries.
pub fn street_of(p: u32, zip_text: &str) -> Option<String> {
    zip_index(zip_text).map(|z| street(p, z))
}

fn zip_index(text: &str) -> Option<u32> {
    text.trim().parse::<u32>().ok()?.checked_sub(10_000).filter(|z| *z < ZIPS)
}

/// Phone text of phone index `p` (read statements).
pub fn phone_text(p: u32) -> String {
    phno(p)
}

/// A uniformly drawn zip index.
pub fn random_zip(rng: &mut Rng) -> u32 {
    rng.below(ZIPS as u64) as u32
}

/// A uniformly drawn phone index.
pub fn random_phone(rng: &mut Rng) -> u32 {
    rng.below(PHONES as u64) as u32
}

/// `INSERT` of arbitrary values.
pub fn insert_sql(values: &[String]) -> String {
    let cells: Vec<String> = values.iter().map(|v| format!("'{v}'")).collect();
    format!("INSERT INTO {TABLE} VALUES ({})", cells.join(", "))
}

/// `DELETE` of every row equal to `values` in all nine columns.
pub fn delete_exact_sql(values: &[String]) -> String {
    let conds: Vec<String> =
        COLUMNS.iter().zip(values).map(|(c, v)| format!("{c} = '{v}'")).collect();
    format!("DELETE FROM {TABLE} WHERE {}", conds.join(" AND "))
}

/// The row that breaks exactly FD `fd` (index into [`FDS`]) by joining
/// `anchor`'s antecedent group with a different consequent; the other
/// three FDs stay exact. The row also comes from another locality, so an
/// extra antecedent attribute tells it apart and a repair exists.
pub fn plant(anchor: Row, fd: usize) -> Vec<String> {
    let mut v = anchor.values();
    let other = (anchor.loc + 5) % LOCALITIES; // area code differs by one
    let relocate = |v: &mut Vec<String>| {
        v[0] = district(other);
        v[1] = region(other);
        v[2] = municipal(other);
        v[3] = area_code(other);
    };
    match fd {
        // Same (District, Region), another municipality and its area code.
        0 => {
            v[2] = municipal(other);
            v[3] = area_code(other);
        }
        // Same zip, another zip's city and state.
        1 => {
            relocate(&mut v);
            let z = (anchor.zip + 10) % ZIPS;
            v[7] = city(z);
            v[8] = state(z);
        }
        // Same (PhNo, Zip), another street.
        2 => {
            relocate(&mut v);
            v[5] = format!("St{:04}", (street_index(anchor.phone, anchor.zip) + 1) % STREETS);
        }
        // Same municipality, another locality's (District, Region, AreaCode).
        _ => {
            relocate(&mut v);
            v[2] = municipal(anchor.loc);
        }
    }
    v
}

/// The table schema: nine NOT NULL text columns.
pub fn schema() -> Arc<Schema> {
    let fields = COLUMNS.iter().map(|c| Field::not_null(*c, DataType::Str)).collect();
    Schema::new(TABLE, fields).expect("static schema").into_shared()
}

/// `rows` seeded rows as a relation, plus their coordinates.
pub fn base(rows: usize, seed: u64) -> (Relation, Vec<Row>) {
    let mut rng = Rng::new(seed, 0);
    let mut builder = RelationBuilder::with_capacity(schema(), rows);
    let mut coords = Vec::with_capacity(rows);
    for _ in 0..rows {
        let row = Row::random(&mut rng);
        builder
            .push_row(row.values().into_iter().map(Value::str).collect())
            .expect("row matches schema");
        coords.push(row);
    }
    (builder.finish(), coords)
}
