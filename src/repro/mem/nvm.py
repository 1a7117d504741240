"""The non-volatile flash memory model.

The flash is the persistent substrate of the intermittent platform: it
holds code, program data, the stack, NvMR's reserved renaming region and
the double-buffered checkpoint slot.  It survives power failures
unchanged.

The model tracks, per word:

* access counts (reads/writes), used by the energy accounting, and
* *wear* — the number of program cycles each location has endured,
  which backs the paper's Section 6.5 claim that renaming reduces the
  maximum per-location write count by ~80%.

Energy is charged by the caller (the architecture knows whether an
access is forward progress, backup, or renaming overhead); the flash
itself only stores words and counts events.
"""

from repro.isa.registers import u32

WORD = 4
_WORD_MASK = ~(WORD - 1) & 0xFFFFFFFF


class NvmFlash:
    """Byte-addressable flash, stored internally as 32-bit words.

    Unwritten locations read as zero (flash shipped erased; the paper's
    programs initialise their data sections explicitly).
    """

    def __init__(self, size):
        self.size = size
        self._words = {}
        self.write_counts = {}
        self.reads = 0
        self.writes = 0
        # The double-buffered checkpoint slot.  Exactly one committed
        # checkpoint exists at a time; an interrupted backup never
        # clobbers it (the in-progress buffer is simply abandoned).
        self._checkpoint = None

    # ------------------------------------------------------------ words
    def _check(self, addr):
        if not 0 <= addr < self.size:
            raise ValueError(f"NVM address out of range: {addr:#x}")

    def read_word(self, addr):
        """Read the aligned 32-bit word containing ``addr``."""
        self._check(addr)
        self.reads += 1
        return self._words.get(addr & _WORD_MASK, 0)

    def write_word(self, addr, value):
        """Write the aligned 32-bit word containing ``addr``."""
        self._check(addr)
        aligned = addr & _WORD_MASK
        self.writes += 1
        self.write_counts[aligned] = self.write_counts.get(aligned, 0) + 1
        self._words[aligned] = u32(value)

    # ----------------------------------------------------------- silent
    # Image loading and verification helpers; these model the programmer
    # flashing the device and the test harness inspecting it, so they do
    # not perturb access statistics.
    def peek_word(self, addr):
        """Read a word without counting the access (harness use only)."""
        self._check(addr)
        return self._words.get(addr & _WORD_MASK, 0)

    def poke_word(self, addr, value):
        """Write a word without counting the access (image loading)."""
        self._check(addr)
        self._words[addr & _WORD_MASK] = u32(value)

    def peek_bytes(self, addr, length):
        """Read ``length`` raw bytes starting at ``addr`` (harness use)."""
        out = bytearray()
        for offset in range(length):
            byte_addr = addr + offset
            word = self.peek_word(byte_addr)
            out.append((word >> (8 * (byte_addr & 3))) & 0xFF)
        return bytes(out)

    def load_image(self, addr, image):
        """Flash ``image`` (bytes) at ``addr`` without counting accesses."""
        for offset, byte in enumerate(image):
            byte_addr = addr + offset
            aligned = byte_addr & _WORD_MASK
            shift = 8 * (byte_addr & 3)
            word = self._words.get(aligned, 0)
            word = (word & ~(0xFF << shift)) | (byte << shift)
            self._words[aligned] = u32(word)

    # ------------------------------------------------------- block I/O
    # Blocks are the architectures' unit of cache fill and write-back —
    # the hottest NVM entry points by far — so both methods batch the
    # bounds check and the access counters instead of delegating to the
    # per-word accessors (the stored words and counts are identical).
    # A block travels as a list of u32 words, the same representation
    # as a cache line's ``words``: a fill returns a fresh list the line
    # keeps, and a write-back stores the line's words as they are.
    def read_block(self, addr, block_size):
        """Read ``block_size`` bytes (aligned) as a fresh list of words,
        counting word reads."""
        words = block_size // WORD
        self._check(addr)
        if words > 1:
            self._check(addr + block_size - WORD)
        self.reads += words
        base = addr & _WORD_MASK
        get = self._words.get
        return [get(a, 0) for a in range(base, base + block_size, WORD)]

    def write_block(self, addr, words):
        """Write the u32 ``words`` (aligned), counting word writes."""
        count = len(words)
        if not count:
            return
        self._check(addr)
        if count > 1:
            self._check(addr + (count - 1) * WORD)
        self.writes += count
        stored = self._words
        counts = self.write_counts
        counts_get = counts.get
        aligned = addr & _WORD_MASK
        for value in words:
            counts[aligned] = counts_get(aligned, 0) + 1
            stored[aligned] = value
            aligned += WORD

    # ------------------------------------------------------ checkpoints
    def commit_checkpoint(self, payload):
        """Atomically commit a checkpoint payload (double-buffered)."""
        self._checkpoint = payload

    def committed_checkpoint(self):
        """Return the last committed checkpoint payload (or None)."""
        return self._checkpoint

    # ------------------------------------------------------------ stats
    @property
    def max_wear(self):
        """Maximum number of writes any single word location has seen."""
        return max(self.write_counts.values(), default=0)

    def wear_histogram(self):
        """Map write-count -> number of word locations with that count."""
        hist = {}
        for count in self.write_counts.values():
            hist[count] = hist.get(count, 0) + 1
        return hist
