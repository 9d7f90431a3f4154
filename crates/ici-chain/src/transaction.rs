//! Account-model transactions.
//!
//! The paper's substrate is a generic transaction ledger; this reproduction
//! uses a signed account/nonce transfer model (sender public key, recipient
//! address, amount, fee, nonce, optional payload). The nonce orders a
//! sender's transactions and blocks replays; the payload lets workloads vary
//! transaction sizes realistically.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

use ici_crypto::merkle;
use ici_crypto::sha256::{digest_each, digest_messages, Digest, Message, Sha256, WIDE};
use ici_crypto::sig::{Keypair, PublicKey, Signature};

use crate::codec::{CodecError, Decode, Encode, Reader, Writer};
use crate::hashing;

/// A transaction identifier: the double-SHA-256 of the full encoding.
pub type TxId = Digest;

/// A 20-byte account address, derived from a public key.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(pub [u8; 20]);

impl Address {
    /// Derives the address of `key`: the first 20 bytes of `SHA256(key)`.
    pub fn from_public_key(key: &PublicKey) -> Address {
        Address::from_digest(&Sha256::digest(key.as_bytes()))
    }

    /// Derives the address owned by numeric identity `seed` (the address of
    /// `Keypair::from_seed(seed)`): two hashes, the key's and the
    /// address's.
    pub fn from_seed(seed: u64) -> Address {
        Address::from_public_key(&Keypair::from_seed(seed).public())
    }

    /// [`Address::from_seed`] of every seed, in order: the keys derive
    /// [`WIDE`] seeds at a time ([`Keypair::from_seeds`]) and their
    /// addresses hash [`WIDE`] keys at a time ([`digest_each`]); the
    /// counters move as the per-seed derivations move them.
    pub fn from_seeds(seeds: impl IntoIterator<Item = u64>) -> impl Iterator<Item = Address> {
        let write = |pair: Keypair, message: &mut Message| message.put(pair.public().as_bytes());
        digest_each(Keypair::from_seeds(seeds), write).map(|digest| Address::from_digest(&digest))
    }

    fn from_digest(digest: &Digest) -> Address {
        let mut out = [0u8; 20];
        out.copy_from_slice(&digest.as_bytes()[..20]);
        Address(out)
    }

    /// The raw address bytes.
    pub fn as_bytes(&self) -> &[u8; 20] {
        &self.0
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let head: String = self.0[..4].iter().map(|b| format!("{b:02x}")).collect();
        write!(f, "Address({head}..)")
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl Encode for Address {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(&self.0);
    }
    fn encoded_len(&self) -> usize {
        20
    }
}

impl Decode for Address {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Address(r.take_array()?))
    }
}

/// A signed account-model transfer.
///
/// Immutable once built: no method changes a field after [`signed`] or
/// `decode` returns, which is what lets the signature verdict be
/// remembered in the value itself.
///
/// [`signed`]: Transaction::signed
#[derive(Clone)]
pub struct Transaction {
    sender: PublicKey,
    recipient: Address,
    amount: u64,
    fee: u64,
    nonce: u64,
    payload: Vec<u8>,
    signature: Signature,
    /// Memoised [`Transaction::verify_signature`] verdict. Cloning
    /// carries it along; deliberately excluded from `PartialEq` and
    /// `Debug` (it is derived state), like `Block`'s id cache.
    verdict: SigVerdict,
}

/// The signature verdict of one transaction, remembered after the first
/// check: one byte in the struct's tail padding. The verdict is a pure
/// function of the transaction's immutable bytes, so racing writers store
/// the same value and the cell publishes nothing but itself — `Relaxed`
/// is enough.
struct SigVerdict(AtomicU8);

impl SigVerdict {
    const UNKNOWN: u8 = 0;
    const VALID: u8 = 1;
    const INVALID: u8 = 2;

    fn unknown() -> SigVerdict {
        SigVerdict(AtomicU8::new(SigVerdict::UNKNOWN))
    }

    fn get(&self) -> Option<bool> {
        match self.0.load(Ordering::Relaxed) {
            SigVerdict::VALID => Some(true),
            SigVerdict::INVALID => Some(false),
            _ => None,
        }
    }

    fn set(&self, valid: bool) {
        let state = if valid {
            SigVerdict::VALID
        } else {
            SigVerdict::INVALID
        };
        self.0.store(state, Ordering::Relaxed);
    }
}

impl Clone for SigVerdict {
    fn clone(&self) -> SigVerdict {
        SigVerdict(AtomicU8::new(self.0.load(Ordering::Relaxed)))
    }
}

impl PartialEq for Transaction {
    fn eq(&self, other: &Transaction) -> bool {
        self.sender == other.sender
            && self.recipient == other.recipient
            && self.amount == other.amount
            && self.fee == other.fee
            && self.nonce == other.nonce
            && self.payload == other.payload
            && self.signature == other.signature
    }
}

impl Eq for Transaction {}

impl fmt::Debug for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Transaction")
            .field("sender", &self.sender)
            .field("recipient", &self.recipient)
            .field("amount", &self.amount)
            .field("fee", &self.fee)
            .field("nonce", &self.nonce)
            .field("payload", &self.payload)
            .field("signature", &self.signature)
            .finish()
    }
}

/// What a transfer says besides its sender: the fields
/// [`Transaction::sign_all`] signs under each sender's keypair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transfer {
    /// Who is paid.
    pub recipient: Address,
    /// Transferred amount.
    pub amount: u64,
    /// Fee paid to the proposer.
    pub fee: u64,
    /// The sender's next sequence number.
    pub nonce: u64,
    /// Opaque payload bytes (may be empty).
    pub payload: Vec<u8>,
}

impl Transaction {
    /// Builds and signs a transfer of `amount` from `sender_pair` to
    /// `recipient`, paying `fee`, with the sender's next `nonce` and an
    /// arbitrary `payload` (may be empty). The signing fields are written
    /// once into a hash message, which both signature passes fold.
    pub fn signed(
        sender_pair: &Keypair,
        recipient: Address,
        amount: u64,
        fee: u64,
        nonce: u64,
        payload: Vec<u8>,
    ) -> Transaction {
        let transfer = Transfer {
            recipient,
            amount,
            fee,
            nonce,
            payload,
        };
        let mut tx = Transaction::unsigned(sender_pair, transfer);
        let mut message = Message::new();
        tx.encode_signing_fields(&mut Writer::hashing(&mut message));
        tx.signature = sender_pair.sign_message(&mut message);
        tx
    }

    /// [`Transaction::signed`] of every `(sender, transfer)`, in order,
    /// pushed onto `out`: the signing fields are written into [`WIDE`]
    /// reused hash messages, each full group is signed through
    /// [`Keypair::sign16`], whose hashes run sixteen wide, and the last
    /// short group one by one. The bytes, the hashes counted and the
    /// unknown verdicts are the per-transaction ones.
    pub fn sign_all(
        transfers: impl IntoIterator<Item = (Keypair, Transfer)>,
        out: &mut Vec<Transaction>,
    ) {
        // Opened at the first transfer: an empty call zero-fills nothing.
        let mut staged: Option<([Message; WIDE], [Keypair; WIDE])> = None;
        let mut filled = 0;
        for (pair, transfer) in transfers {
            let (messages, pairs) = staged
                .get_or_insert_with(|| (std::array::from_fn(|_| Message::new()), [pair; WIDE]));
            let tx = Transaction::unsigned(&pair, transfer);
            let message = &mut messages[filled];
            message.truncate(0);
            tx.encode_signing_fields(&mut Writer::hashing(message));
            pairs[filled] = pair;
            out.push(tx);
            filled += 1;
            if filled == WIDE {
                let signatures = Keypair::sign16(pairs.each_ref(), messages);
                let group = out.len() - WIDE;
                for (tx, signature) in out[group..].iter_mut().zip(signatures) {
                    tx.signature = signature;
                }
                filled = 0;
            }
        }
        if let Some((messages, pairs)) = &mut staged {
            let group = out.len() - filled;
            for ((tx, message), pair) in out[group..].iter_mut().zip(messages).zip(&*pairs) {
                tx.signature = pair.sign_message(message);
            }
        }
    }

    /// `transfer` from `sender_pair` with an all-zero signature, for the
    /// signers to fill in before they hand it out.
    fn unsigned(sender_pair: &Keypair, transfer: Transfer) -> Transaction {
        let Transfer {
            recipient,
            amount,
            fee,
            nonce,
            payload,
        } = transfer;
        Transaction {
            sender: sender_pair.public(),
            recipient,
            amount,
            fee,
            nonce,
            payload,
            signature: Signature::from_bytes([0u8; 64]),
            verdict: SigVerdict::unknown(),
        }
    }

    /// The sender's public key.
    pub fn sender(&self) -> &PublicKey {
        &self.sender
    }

    /// The sender's derived address.
    pub fn sender_address(&self) -> Address {
        Address::from_public_key(&self.sender)
    }

    /// The recipient address.
    pub fn recipient(&self) -> Address {
        self.recipient
    }

    /// Transferred amount.
    pub fn amount(&self) -> u64 {
        self.amount
    }

    /// Fee paid to the proposer.
    pub fn fee(&self) -> u64 {
        self.fee
    }

    /// Sender sequence number.
    pub fn nonce(&self) -> u64 {
        self.nonce
    }

    /// Opaque payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The attached signature.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// The transaction id: double-SHA-256 over the full encoding,
    /// written once into a hash message (no encoding buffer).
    pub fn id(&self) -> TxId {
        hashing::double_sha256_encodable(self)
    }

    /// The transaction's Merkle leaf: [`merkle::hash_leaf`] of its full
    /// encoding, written once after the leaf prefix.
    pub fn leaf_hash(&self) -> Digest {
        let mut message = merkle::leaf_message();
        self.encode(&mut Writer::hashing(&mut message));
        merkle::hash_leaf_message(message)
    }

    /// Calls `f` with [`Transaction::id`] of every transaction, in
    /// order: the encodings are written into [`WIDE`] reused hash
    /// messages and each full group is hashed as one batch
    /// ([`digest_messages`], sixteen wide when the encodings pad to one
    /// block count), the last short group one by one. The transactions
    /// may come from any number of blocks; a group fills across them.
    pub fn for_each_id<'t>(
        transactions: impl IntoIterator<Item = &'t Transaction>,
        f: impl FnMut(TxId),
    ) {
        let double =
            |messages: &mut [Message], out: &mut [Digest]| digest_messages(messages, true, out);
        Transaction::hash_encodings(transactions, &[], double, f);
    }

    /// [`Transaction::leaf_hash`] of every transaction, `out[i]` the
    /// leaf of `transactions[i]` (up to the shorter slice), batched like
    /// [`Transaction::for_each_id`] ([`merkle::hash_leaf_messages`]).
    pub fn leaf_hashes(transactions: &[Transaction], out: &mut [Digest]) {
        let mut out = out.iter_mut();
        let transactions = transactions.iter().take(out.len());
        let prefix = [merkle::LEAF_PREFIX];
        Transaction::hash_encodings(transactions, &prefix, merkle::hash_leaf_messages, |leaf| {
            if let Some(slot) = out.next() {
                *slot = leaf;
            }
        });
    }

    /// Writes each encoding after `prefix` into one of [`WIDE`] hash
    /// messages, kept on the stack for the whole call and cut back to
    /// the prefix before each write, and hands every full group, then
    /// the last short one, to `batch`; `f` sees the digests in order.
    fn hash_encodings<'t>(
        transactions: impl IntoIterator<Item = &'t Transaction>,
        prefix: &[u8],
        batch: impl Fn(&mut [Message], &mut [Digest]),
        mut f: impl FnMut(Digest),
    ) {
        // Opened at the first transaction: an empty call zero-fills nothing.
        let mut staged: Option<[Message; WIDE]> = None;
        let mut digests = [Digest::ZERO; WIDE];
        let mut filled = 0;
        for tx in transactions {
            let messages =
                staged.get_or_insert_with(|| std::array::from_fn(|_| Message::from(prefix)));
            let message = &mut messages[filled];
            message.truncate(prefix.len());
            tx.encode(&mut Writer::hashing(message));
            filled += 1;
            if filled == WIDE {
                batch(messages, &mut digests);
                digests.iter().copied().for_each(&mut f);
                filled = 0;
            }
        }
        if let Some(messages) = &mut staged {
            batch(&mut messages[..filled], &mut digests[..filled]);
            digests[..filled].iter().copied().for_each(f);
        }
    }

    /// The byte string the signature covers (everything but the signature,
    /// under a domain prefix).
    pub fn signing_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64 + self.payload.len());
        self.encode_signing_fields(&mut w);
        w.into_bytes()
    }

    fn encode_signing_fields(&self, w: &mut Writer) {
        w.put_bytes(b"ici-tx-v1:");
        self.sender.encode(w);
        self.recipient.encode(w);
        self.amount.encode(w);
        self.fee.encode(w);
        self.nonce.encode(w);
        // The bytes `Vec<u8>::encode` writes, in one call instead of one
        // per payload byte.
        w.put_len_prefixed(&self.payload);
    }

    /// Checks the signature against the sender key.
    ///
    /// The first call writes the signing fields once into a hash
    /// message, which both signature passes fold; the verdict is then
    /// remembered in this transaction and its later clones, so every
    /// further ask — admission, build, validation, a collaborative
    /// slice — is a load.
    pub fn verify_signature(&self) -> bool {
        if let Some(valid) = self.verdict.get() {
            return valid;
        }
        let mut message = Message::new();
        self.encode_signing_fields(&mut Writer::hashing(&mut message));
        self.check_signature(&mut message)
    }

    /// Checks the signature of every transaction whose verdict is not
    /// yet known and remembers each verdict, as
    /// [`Transaction::verify_signature`] would one by one: the signing
    /// fields are written into [`WIDE`] reused hash messages, each full
    /// group goes through [`PublicKey::verify16`], whose hashes run
    /// sixteen wide, and the last fewer than [`WIDE`] one by one. Known
    /// verdicts are loads; every later ask is one.
    pub fn verify_signatures(transactions: &[Transaction]) {
        // Opened at the first unknown verdict: a call that finds every
        // verdict known zero-fills nothing.
        let mut staged: Option<[Message; WIDE]> = None;
        let mut group = [0usize; WIDE];
        let mut pending = 0;
        for (i, tx) in transactions.iter().enumerate() {
            if tx.verdict.get().is_some() {
                continue;
            }
            let messages = staged.get_or_insert_with(|| std::array::from_fn(|_| Message::new()));
            let message = &mut messages[pending];
            message.truncate(0);
            tx.encode_signing_fields(&mut Writer::hashing(message));
            group[pending] = i;
            pending += 1;
            if pending == WIDE {
                let txs = group.map(|i| &transactions[i]);
                let keys = txs.map(|tx| &tx.sender);
                let signatures = txs.map(|tx| &tx.signature);
                let verdicts = PublicKey::verify16(keys, messages, signatures);
                for (tx, valid) in txs.iter().zip(verdicts) {
                    tx.verdict.set(valid);
                }
                pending = 0;
            }
        }
        if let Some(messages) = &mut staged {
            for (i, message) in group[..pending].iter().zip(messages) {
                transactions[*i].check_signature(message);
            }
        }
    }

    /// Checks the signature over `message`, this transaction's signing
    /// fields, and remembers the verdict.
    fn check_signature(&self, message: &mut Message) -> bool {
        let valid = self.sender.verify_message(message, &self.signature);
        self.verdict.set(valid);
        valid
    }
}

impl Encode for Transaction {
    fn encode(&self, w: &mut Writer) {
        self.sender.encode(w);
        self.recipient.encode(w);
        self.amount.encode(w);
        self.fee.encode(w);
        self.nonce.encode(w);
        w.put_len_prefixed(&self.payload);
        self.signature.encode(w);
    }

    fn encoded_len(&self) -> usize {
        33 + 20 + 8 + 8 + 8 + (4 + self.payload.len()) + 64
    }
}

impl Decode for Transaction {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Transaction {
            sender: PublicKey::decode(r)?,
            recipient: Address::decode(r)?,
            amount: u64::decode(r)?,
            fee: u64::decode(r)?,
            nonce: u64::decode(r)?,
            payload: r.take_len_prefixed()?.to_vec(),
            signature: Signature::decode(r)?,
            verdict: SigVerdict::unknown(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tx(seed: u64, nonce: u64) -> Transaction {
        Transaction::signed(
            &Keypair::from_seed(seed),
            Address::from_seed(seed + 1),
            100,
            1,
            nonce,
            vec![0xAB; 16],
        )
    }

    #[test]
    fn signed_transaction_verifies() {
        assert!(sample_tx(1, 0).verify_signature());
    }

    #[test]
    fn tampering_any_field_breaks_signature() {
        let tx = sample_tx(1, 0);
        let mut other = tx.clone();
        other.amount += 1;
        assert!(!other.verify_signature());

        let mut other = tx.clone();
        other.nonce += 1;
        assert!(!other.verify_signature());

        let mut other = tx.clone();
        other.recipient = Address::from_seed(99);
        assert!(!other.verify_signature());

        let mut other = tx.clone();
        other.payload.push(0);
        assert!(!other.verify_signature());

        let mut other = tx;
        other.fee = 1000;
        assert!(!other.verify_signature());
    }

    #[test]
    fn encoding_round_trips() {
        let tx = sample_tx(7, 3);
        let bytes = tx.to_bytes();
        assert_eq!(bytes.len(), tx.encoded_len());
        let decoded = Transaction::from_bytes(&bytes).expect("valid encoding");
        assert_eq!(decoded, tx);
        assert!(decoded.verify_signature());
        assert_eq!(decoded.id(), tx.id());
    }

    #[test]
    fn ids_are_distinct_per_transaction() {
        let a = sample_tx(1, 0);
        let b = sample_tx(1, 1);
        let c = sample_tx(2, 0);
        assert_ne!(a.id(), b.id());
        assert_ne!(a.id(), c.id());
        assert_ne!(b.id(), c.id());
    }

    #[test]
    fn address_derivation_is_deterministic() {
        assert_eq!(Address::from_seed(5), Address::from_seed(5));
        assert_ne!(Address::from_seed(5), Address::from_seed(6));
        let pair = Keypair::from_seed(5);
        assert_eq!(
            Address::from_seed(5),
            Address::from_public_key(&pair.public())
        );
    }

    #[test]
    fn sender_address_matches_key() {
        let tx = sample_tx(4, 0);
        assert_eq!(tx.sender_address(), Address::from_seed(4));
    }

    #[test]
    fn truncated_encodings_fail() {
        let bytes = sample_tx(3, 0).to_bytes();
        for cut in [0, 10, 33, 60, bytes.len() - 1] {
            assert!(Transaction::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn empty_payload_is_valid() {
        let tx = Transaction::signed(
            &Keypair::from_seed(1),
            Address::from_seed(2),
            5,
            0,
            0,
            Vec::new(),
        );
        assert!(tx.verify_signature());
        assert_eq!(tx.encoded_len(), 33 + 20 + 24 + 4 + 64);
        assert_eq!(Transaction::from_bytes(&tx.to_bytes()).unwrap(), tx);
    }

    #[test]
    fn address_display_is_hex() {
        let addr = Address([0xAB; 20]);
        assert_eq!(addr.to_string(), "ab".repeat(20));
    }
}
