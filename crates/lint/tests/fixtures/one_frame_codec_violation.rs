pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(&fg_store::crc32(payload).to_le_bytes());
    framed.extend_from_slice(payload);
    framed
}
