package datagen

import (
	"math/rand"

	"raal/internal/catalog"
)

// IMDB generates a synthetic Internet Movie Database in the shape of the
// Join Order Benchmark subset referenced by the paper's Sec. III queries:
// title, movie_companies, movie_keyword, movie_info, movie_info_idx,
// cast_info, company_name, and keyword. At scale 1.0 it holds roughly 650K
// rows across 8 tables; the multiplier is unbounded, and the streaming
// execution engine keeps corpus collection practical well past scale 16
// (~10^6-row fact tables) into the 10^7-row range (scale ~150+, memory
// permitting — generation allocates every column eagerly at ~8B per int
// value).
//
// Foreign keys are zipf-distributed (popular movies accumulate many
// companies/keywords/cast entries) and production_year correlates with
// kind_id, reproducing the correlation + skew that make IMDB a harder
// estimation target than TPC-H.
func IMDB(scale float64, seed int64) *catalog.Database {
	rng := rand.New(rand.NewSource(seed))

	nTitle := scaled(25000, scale)
	nMC := scaled(65000, scale)
	nMK := scaled(90000, scale)
	nMI := scaled(70000, scale)
	nMII := scaled(45000, scale)
	nCI := scaled(120000, scale)
	nCN := scaled(4000, scale)
	nKW := scaled(8000, scale)

	db := &catalog.Database{Name: "imdb", Tables: map[string]*catalog.Table{}}

	// title(id, kind_id, production_year, title)
	title := catalog.NewTable(&catalog.Schema{
		Name: "title",
		Columns: []catalog.Column{
			{Name: "id", Type: catalog.Int64},
			{Name: "kind_id", Type: catalog.Int64},
			{Name: "production_year", Type: catalog.Int64},
			{Name: "title", Type: catalog.String},
		},
	}, nTitle)
	title.Ints["id"] = serialCol(nTitle)
	kinds := zipfCol(rng, nTitle, 7, 1.4)
	title.Ints["kind_id"] = kinds
	years := make([]int64, nTitle)
	for i := range years {
		// Correlated: movies (kind 1) skew recent, TV episodes (kind 7)
		// skew to the 1990s+, others spread wider.
		base := int64(1960)
		span := int64(60)
		switch kinds[i] {
		case 1:
			base, span = 1990, 30
		case 7:
			base, span = 1995, 25
		}
		years[i] = base + int64(float64(span)*rng.Float64()*rng.Float64()) // quadratic skew toward base... inverted below
		years[i] = base + span - (years[i] - base)                         // skew toward recent end
	}
	title.Ints["production_year"] = years
	title.Strs["title"] = poolCol(rng, nTitle, makePool("title", 2000), 1.1)
	db.Tables["title"] = title

	// movie_companies(movie_id, company_id, company_type_id)
	mc := catalog.NewTable(&catalog.Schema{
		Name: "movie_companies",
		Columns: []catalog.Column{
			{Name: "movie_id", Type: catalog.Int64},
			{Name: "company_id", Type: catalog.Int64},
			{Name: "company_type_id", Type: catalog.Int64},
		},
	}, nMC)
	mc.Ints["movie_id"] = zipfCol(rng, nMC, uint64(nTitle), 1.2)
	mc.Ints["company_id"] = zipfCol(rng, nMC, uint64(nCN), 1.5)
	mc.Ints["company_type_id"] = uniformCol(rng, nMC, 1, 2)
	db.Tables["movie_companies"] = mc

	// movie_keyword(movie_id, keyword_id)
	mk := catalog.NewTable(&catalog.Schema{
		Name: "movie_keyword",
		Columns: []catalog.Column{
			{Name: "movie_id", Type: catalog.Int64},
			{Name: "keyword_id", Type: catalog.Int64},
		},
	}, nMK)
	mk.Ints["movie_id"] = zipfCol(rng, nMK, uint64(nTitle), 1.2)
	mk.Ints["keyword_id"] = zipfCol(rng, nMK, uint64(nKW), 1.3)
	db.Tables["movie_keyword"] = mk

	// movie_info(movie_id, info_type_id, info)
	mi := catalog.NewTable(&catalog.Schema{
		Name: "movie_info",
		Columns: []catalog.Column{
			{Name: "movie_id", Type: catalog.Int64},
			{Name: "info_type_id", Type: catalog.Int64},
			{Name: "info", Type: catalog.String},
		},
	}, nMI)
	mi.Ints["movie_id"] = zipfCol(rng, nMI, uint64(nTitle), 1.15)
	mi.Ints["info_type_id"] = zipfCol(rng, nMI, 110, 1.3)
	mi.Strs["info"] = poolCol(rng, nMI, makePool("info", 500), 1.2)
	db.Tables["movie_info"] = mi

	// movie_info_idx(movie_id, info_type_id, info)
	mii := catalog.NewTable(&catalog.Schema{
		Name: "movie_info_idx",
		Columns: []catalog.Column{
			{Name: "movie_id", Type: catalog.Int64},
			{Name: "info_type_id", Type: catalog.Int64},
			{Name: "info", Type: catalog.String},
		},
	}, nMII)
	mii.Ints["movie_id"] = zipfCol(rng, nMII, uint64(nTitle), 1.1)
	mii.Ints["info_type_id"] = uniformCol(rng, nMII, 99, 101)
	mii.Strs["info"] = poolCol(rng, nMII, makePool("rating", 100), 1.05)
	db.Tables["movie_info_idx"] = mii

	// cast_info(movie_id, person_id, role_id)
	ci := catalog.NewTable(&catalog.Schema{
		Name: "cast_info",
		Columns: []catalog.Column{
			{Name: "movie_id", Type: catalog.Int64},
			{Name: "person_id", Type: catalog.Int64},
			{Name: "role_id", Type: catalog.Int64},
		},
	}, nCI)
	ci.Ints["movie_id"] = zipfCol(rng, nCI, uint64(nTitle), 1.25)
	ci.Ints["person_id"] = zipfCol(rng, nCI, uint64(scaled(30000, scale)), 1.3)
	ci.Ints["role_id"] = zipfCol(rng, nCI, 11, 1.5)
	db.Tables["cast_info"] = ci

	// company_name(id, name, country_code)
	cn := catalog.NewTable(&catalog.Schema{
		Name: "company_name",
		Columns: []catalog.Column{
			{Name: "id", Type: catalog.Int64},
			{Name: "name", Type: catalog.String},
			{Name: "country_code", Type: catalog.String},
		},
	}, nCN)
	cn.Ints["id"] = serialCol(nCN)
	cn.Strs["name"] = makePool("company", nCN)
	cn.Strs["country_code"] = poolCol(rng, nCN, makePool("cc", 80), 1.6)
	db.Tables["company_name"] = cn

	// keyword(id, keyword)
	kw := catalog.NewTable(&catalog.Schema{
		Name: "keyword",
		Columns: []catalog.Column{
			{Name: "id", Type: catalog.Int64},
			{Name: "keyword", Type: catalog.String},
		},
	}, nKW)
	kw.Ints["id"] = serialCol(nKW)
	kw.Strs["keyword"] = makePool("keyword", nKW)
	db.Tables["keyword"] = kw

	return db
}
