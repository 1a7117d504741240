"""The write-back, write-allocate (WBWA) set-associative data cache.

Table 2 configuration: 256 B, 8-way, 16 B blocks, LRU, 1-cycle hits.
The cache is *volatile* — its contents vanish at power failure — which
is exactly why the intermittent architectures care about when dirty
blocks are persisted (evictions and backups).

Replacement policy decisions (victim choice) live here; *handling* the
victim (violation detection, renaming, the actual NVM write-back) is the
architecture's job: it finds the victim with
:meth:`WriteBackCache.peek_victim` and cleans it while it is still
resident, and only then does :meth:`WriteBackCache.allocate` reuse it.
"""


class CacheLine:
    """One cache line.

    ``words`` is the line's contents: a list of ``words_per_block`` u32
    ints, filled and written back as is (no byte encoding).  Byte
    accesses are shift/mask on the containing word, byte ``i`` of a
    word in bits ``8*i .. 8*i+7`` — little-endian lanes, like the
    simulated ISA.  ``meta`` is reserved for the owning architecture
    (the intermittent architectures hang the line's LBF off it).
    """

    __slots__ = ("valid", "dirty", "block_addr", "words", "meta")

    def __init__(self, block_size):
        self.valid = False
        self.dirty = False
        self.block_addr = 0
        self.words = [0] * (block_size // 4)
        self.meta = None

    def invalidate(self):
        self.valid = False
        self.dirty = False
        self.meta = None


class WriteBackCache:
    """A WBWA set-associative cache with true-LRU replacement."""

    def __init__(self, size_bytes=256, assoc=8, block_size=16):
        if size_bytes % (assoc * block_size):
            raise ValueError("cache size must be a multiple of assoc * block")
        if block_size % 4:
            raise ValueError("block size must be a word multiple")
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.block_size = block_size
        self.num_sets = size_bytes // (assoc * block_size)
        self.words_per_block = block_size // 4
        # Each set is a list of lines ordered most-recently-used first.
        self._sets = [
            [CacheLine(block_size) for _ in range(assoc)] for _ in range(self.num_sets)
        ]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # --------------------------------------------------------- geometry
    def block_address(self, addr):
        """The aligned block address containing byte ``addr``."""
        return addr & ~(self.block_size - 1)

    def word_index(self, addr):
        """Index of the word within its block."""
        return (addr & (self.block_size - 1)) >> 2

    def _set_for(self, block_addr):
        return self._sets[(block_addr // self.block_size) % self.num_sets]

    # ----------------------------------------------------------- access
    def lookup(self, block_addr):
        """Return the line holding ``block_addr`` (LRU-promoted), or None."""
        lines = self._sets[(block_addr // self.block_size) % self.num_sets]
        i = 0
        for line in lines:
            if line.valid and line.block_addr == block_addr:
                if i:
                    lines.insert(0, lines.pop(i))
                self.hits += 1
                return line
            i += 1
        self.misses += 1
        return None

    def peek(self, block_addr):
        """Like :meth:`lookup` but without stats or LRU promotion."""
        for line in self._set_for(block_addr):
            if line.valid and line.block_addr == block_addr:
                return line
        return None

    def peek_victim(self, block_addr):
        """The line :meth:`allocate` would displace for ``block_addr``.

        Returns None if a free (invalid) way exists.  Architectures call
        this *before* allocating so the victim can be written back,
        renamed, or cleaned by a backup while it is still resident.
        """
        lines = self._set_for(block_addr)
        for line in lines:
            if not line.valid:
                return None
        return lines[-1]

    def allocate(self, block_addr):
        """Claim a line for ``block_addr`` and return it.

        The displaced line (if the set is full) must already be clean:
        the caller resolves it through :meth:`peek_victim` first.  The
        caller then binds ``line.words`` to the block's contents and
        sets its metadata.  The returned line is already installed at
        the MRU position, valid, clean.
        """
        lines = self._set_for(block_addr)
        index = None
        for i, line in enumerate(lines):
            if not line.valid:
                index = i
                break
        if index is None:
            index = len(lines) - 1  # true LRU: last in recency order
            assert not lines[index].dirty, "victim must be clean"
            self.evictions += 1
        line = lines.pop(index)
        line.valid = True
        line.dirty = False
        line.block_addr = block_addr
        line.meta = None
        lines.insert(0, line)
        return line

    # ------------------------------------------------------- word I/O
    def read_word(self, line, addr):
        return line.words[(addr & (self.block_size - 1)) >> 2]

    def write_word(self, line, addr, value):
        line.words[(addr & (self.block_size - 1)) >> 2] = value & 0xFFFFFFFF
        line.dirty = True

    def read_byte(self, line, addr):
        word = line.words[(addr & (self.block_size - 1)) >> 2]
        return (word >> ((addr & 3) << 3)) & 0xFF

    def write_byte(self, line, addr, value):
        words = line.words
        index = (addr & (self.block_size - 1)) >> 2
        shift = (addr & 3) << 3
        words[index] = (words[index] & ~(0xFF << shift)) | ((value & 0xFF) << shift)
        line.dirty = True

    # ----------------------------------------------------------- bulk
    def dirty_lines(self):
        """All valid dirty lines (order: set-major, MRU first)."""
        return [
            line for lines in self._sets for line in lines if line.valid and line.dirty
        ]

    def dirty_count(self):
        """Number of valid dirty lines, without materialising a list.

        Backup-cost estimates consult this every simulated step for the
        count-only architectures, so the list allocation matters.
        """
        count = 0
        for lines in self._sets:
            for line in lines:
                if line.valid and line.dirty:
                    count += 1
        return count

    def valid_lines(self):
        return [line for lines in self._sets for line in lines if line.valid]

    def clear(self):
        """Power failure: all volatile contents are lost."""
        for lines in self._sets:
            for line in lines:
                line.invalidate()
